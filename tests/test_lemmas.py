"""Built-in certificate families."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import dendro
from dendro import lemmas
from dendro.anodyne import AnodyneClass, HornStep, NestedStep, verify_certificate
from dendro.kan import tree_shapes
from dendro.lemmas import (LEMMA_IDS, binary_tensor_certificate,
                           build_lemma_certificate, codim_base_cells,
                           codim_certificate,
                           extended_corolla_split_certificate,
                           root_horn_certificate, split_vertex_tree)
from dendro.trees import (Tree, TreeError, Vertex, c2, corolla,
                          extended_corolla, graft, has_root_horn)


def three_chain_over_binary():
    return Tree((Vertex(("p", "q"), "x"), Vertex(("x",), "y"),
                 Vertex(("y", "z"), "r")), "r")


def test_lemma_ids():
    assert LEMMA_IDS == ("6.4", "7.2", "8.3", "8.5")
    with pytest.raises(ValueError):
        build_lemma_certificate("9.9")


def test_binary_tensor_certificate_n1():
    cert = binary_tensor_certificate(1)
    rep = verify_certificate(cert)
    assert rep.valid
    classes = rep.classes_used
    assert classes.count(AnodyneClass.BINARY_EXTENDED_LEFT) == 1
    assert all(c <= AnodyneClass.BINARY_EXTENDED_LEFT for c in classes)


def test_binary_tensor_certificate_rejects_bad_n():
    with pytest.raises(ValueError):
        binary_tensor_certificate(0)


def test_split_vertex_tree_shape():
    t = split_vertex_tree(1, 2)
    assert t.edges == {"a_0", "a_1", "b_1", "b_2", "d", "c"}
    assert t.vertex_above("c").inputs == ("a_1", "d")
    with pytest.raises(ValueError):
        split_vertex_tree(0, 1)


@pytest.mark.parametrize("n,k", [(1, 1), (1, 2)])
def test_extended_corolla_split_certificate(n, k):
    cert = extended_corolla_split_certificate(n, k)
    rep = verify_certificate(cert)
    assert rep.valid
    assert rep.classes_used[-1] is AnodyneClass.INNER
    # the first step attaches the k-corolla over its leaf horn
    first = cert.steps[0]
    assert isinstance(first, HornStep)
    assert first.cell == frozenset({f"b_{i}" for i in range(1, k + 1)} | {"d"})


def test_codim_certificate_samples():
    for tree, v in ((three_chain_over_binary(), "r"),
                    (extended_corolla(2, 1), "c"),
                    (graft(c2(), "a", corolla(2, leaves=("p", "q"), root="a")), "c")):
        cert = codim_certificate(tree, v)
        rep = verify_certificate(cert)
        assert rep.valid, rep.violations
        assert all(c is AnodyneClass.INNER for c in rep.classes_used)


def test_codim_certificate_is_inner_at_every_vertex():
    """Every vertex of every tree of 2 to 4 vertices: below a vertex other
    than the root's, the base segment has 2 vertices or more."""
    pairs = [(tree, v.output) for tree in tree_shapes(4) if len(tree.vertices) >= 2
             for v in tree.vertices]
    assert len(pairs) == 859
    for tree, v in pairs:
        rep = verify_certificate(codim_certificate(tree, v))
        assert rep.valid, (tree, v, rep.violations)
        assert all(c is AnodyneClass.INNER for c in rep.classes_used), (tree, v)


def test_codim_base_cells_unknown_vertex():
    with pytest.raises(TreeError):
        codim_base_cells(c2(), "zz")


def test_root_horn_certificate_corolla():
    cert = root_horn_certificate(c2(), ("colour", "a"))
    rep = verify_certificate(cert)
    assert rep.valid
    assert rep.overall_class is AnodyneClass.BINARY_EXTENDED_LEFT
    with pytest.raises(TreeError):
        root_horn_certificate(c2(), ("colour", "c"))   # that horn is a leaf horn
    with pytest.raises(TreeError):
        root_horn_certificate(c2())


@pytest.mark.parametrize("tree,omitted,message", [
    (three_chain_over_binary(), ("inner", "x"), "the root horn omits root:r, not inner:x"),
    (three_chain_over_binary(), ("top", "x"), "the root horn omits root:r, not top:x"),
    (three_chain_over_binary(), ("colour", "zz"), "the root horn omits root:r, not colour:zz"),
    (c2(), ("colour", "zz"), "a corolla root horn omits a leaf colour, not colour:zz"),
    (c2(), ("root", "c"), "a corolla root horn omits a leaf colour, not root:c"),
], ids=["inner", "top", "colour", "corolla-unknown-colour", "corolla-root"])
def test_root_horn_certificate_rejects_another_face(tree, omitted, message):
    """Only the root horn is certified: a multi-vertex tree takes None or
    its root face, a corolla a leaf's colour face; any other face is an
    error naming it, not a certificate of a horn it was not asked for."""
    with pytest.raises(TreeError) as exc:
        root_horn_certificate(tree, omitted)
    assert str(exc.value) == message


def test_root_horn_certificate_extended_corolla():
    cert = root_horn_certificate(extended_corolla(2, 2))
    rep = verify_certificate(cert)
    assert rep.valid
    assert rep.overall_class is AnodyneClass.EXTENDED_LEFT
    assert cert.kind == "filtration"
    assert len(cert.steps) == 1


def test_root_horn_certificate_requires_root_horn():
    t = graft(graft(c2(), "a", corolla(1, leaves=("p",), root="a")),
              "b", corolla(1, leaves=("q",), root="b"))
    assert not has_root_horn(t)
    with pytest.raises(TreeError):
        root_horn_certificate(t)


def test_root_horn_certificate_retract_general():
    cert = root_horn_certificate(three_chain_over_binary())
    assert cert.kind == "retract"
    rep = verify_certificate(cert)
    assert rep.valid
    assert rep.overall_class <= AnodyneClass.EXTENDED_LEFT


def test_build_lemma_certificate_dispatch():
    c1 = build_lemma_certificate("7.2", n=1, k=1)
    assert verify_certificate(c1).valid
    c2_ = build_lemma_certificate("8.3", tree=extended_corolla(2, 1), v="c")
    assert verify_certificate(c2_).valid
    c3 = build_lemma_certificate("8.5", tree=c2(), omitted=("colour", "b"))
    assert verify_certificate(c3).valid


def test_root_horn_certificates_do_not_depend_on_earlier_builds():
    """The split trees of these two trees share faces that are equal as
    trees but written with other input orders.  Built one after the other
    in a fresh process, each certificate still verifies."""
    src = str(Path(dendro.__file__).resolve().parent.parent)
    code = ("from dendro.anodyne import verify_certificate\n"
            "from dendro.lemmas import root_horn_certificate\n"
            "from dendro.trees import Tree, Vertex as V\n"
            "first = Tree([V(('e1', 'e2', 'e3'), 'e0'), V(('e4', 'e5', 'e6'), 'e3'),\n"
            "              V(('e7',), 'e5'), V(('e8',), 'e6')], 'e0')\n"
            "second = Tree([V(('e1', 'e2', 'e3'), 'e0'), V(('e4', 'e5'), 'e3'),\n"
            "               V(('e6', 'e7'), 'e5'), V(('e8',), 'e6'), V(('e9',), 'e7')],\n"
            "              'e0')\n"
            "for tree in (first, second):\n"
            "    print(verify_certificate(root_horn_certificate(tree)).summary())\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["valid: 261 steps, class EXTENDED_LEFT",
                                        "valid: 2523 steps, class EXTENDED_LEFT"]


def _nested_steps(cert):
    """Every nested step of a certificate, each time it occurs."""
    if cert.kind == "retract":
        yield from _nested_steps(cert.sub)
    for step in cert.steps:
        if isinstance(step, NestedStep):
            yield step
            yield from _nested_steps(step.certificate)


def test_root_horn_certificate_builds_each_nested_cell_tree_once(monkeypatch):
    """Within one call, a nested cell tree written alike, the same
    `(root, vertices)`, gets one sub-certificate, built once.  Over the
    multi-vertex root horns of `tree_shapes(4)`, 306 of the 1,296 nested
    steps reuse one."""
    calls = []
    build = lemmas._root_horn

    def counting(tree, omitted, memo):
        calls.append((tree.root, tree.vertices))
        return build(tree, omitted, memo)

    monkeypatch.setattr(lemmas, "_root_horn", counting)
    steps = shared = 0
    for tree in tree_shapes(4):
        if len(tree.vertices) < 2 or not has_root_horn(tree):
            continue
        calls.clear()
        cert = root_horn_certificate(tree)
        by_tree: dict = {}
        nested = list(_nested_steps(cert))
        for step in nested:
            g = step.certificate.ambient_generators[0]
            by_tree.setdefault((g.root, g.vertices), set()).add(id(step.certificate))
        assert all(len(ids) == 1 for ids in by_tree.values()), tree
        assert len(set(calls)) == len(calls) and set(calls[1:]) == by_tree.keys(), tree
        steps += len(nested)
        shared += len(nested) - len(by_tree)
    assert (steps, shared) == (1296, 306)


def test_shuffled_five_vertex_root_horns_build_in_one_process():
    """A seeded sample of five-vertex root horns, each written with its
    vertices and every vertex's inputs shuffled, builds and verifies one
    tree after another in one process."""
    rng = random.Random(5)
    five = [t for t in tree_shapes(5) if len(t.vertices) == 5 and has_root_horn(t)]
    for tree in rng.sample(five, 12):
        vertices = [Vertex(tuple(rng.sample(v.inputs, len(v.inputs))), v.output)
                    for v in tree.vertices]
        rng.shuffle(vertices)
        rep = verify_certificate(root_horn_certificate(Tree(vertices, tree.root)))
        assert rep.valid, tree
        assert rep.overall_class <= AnodyneClass.EXTENDED_LEFT
