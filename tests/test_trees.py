"""Trees: construction, faces, horns, grafting, isomorphism, subtrees."""

import gc
import itertools
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from dendro import trees as trees_module
from dendro.complexes import Complex, closure_cells
from dendro.kan import tree_shapes
from dendro.trees import (INNER_FACE, ROOT_FACE, TOP_FACE, COROLLA_FACE,
                          Tree, TreeError, Vertex, branch,
                          build_standard, c2, classify_edges, classify_horn,
                          corolla, eta, extended_corolla, face, face_count, faces,
                          graft, has_root_horn, horn, is_extended_corolla, isomorphic,
                          isomorphisms, linear,
                          stem_edges, subtree_from_edges, _faces_uncached)
from dendro.anodyne import verify_certificate
from dendro.jsonio import dumps, tree_from_json, tree_to_json
from dendro.lemmas import root_horn_certificate

SHAPES4 = tree_shapes(4)


# -- construction and validation -------------------------------------------

def test_eta_has_one_edge_no_vertices():
    t = eta("e")
    assert t.edges == frozenset({"e"})
    assert t.root == "e"
    assert t.leaves == frozenset({"e"})
    assert not t.vertices


def test_eta_has_no_faces():
    with pytest.raises(TreeError):
        faces(eta())


def test_corolla_shape():
    t = corolla(3)
    assert len(t.vertices) == 1
    assert t.leaves == frozenset({"l_1", "l_2", "l_3"})
    assert t.root == "r"
    assert not t.inner_edges


def test_linear_tree():
    t = linear(3)
    assert all(v.arity == 1 for v in t.vertices)
    assert len(t.vertices) == 3
    assert t.root == "3"
    assert t.leaves == frozenset({"0"})
    assert t.inner_edges == frozenset({"1", "2"})


def test_leaf_and_edge_names_must_match_the_arity():
    with pytest.raises(TreeError, match="expected 2 leaf names, got 1"):
        corolla(2, leaves=("a",))
    with pytest.raises(TreeError, match="expected 3 edge names, got 1"):
        linear(2, edges=("a",))


def test_extended_corolla_zero_chain_is_corolla():
    assert isomorphic(extended_corolla(0, 3), corolla(4))


def test_build_standard_dispatch():
    assert build_standard("corolla", 2) == corolla(2)
    assert build_standard("linear", 1) == linear(1)
    assert build_standard("eta") == eta()
    with pytest.raises(TreeError):
        build_standard("widget", 1)
    with pytest.raises(TreeError, match="corolla takes 1 parameter, got 0"):
        build_standard("corolla")


def test_duplicate_output_rejected():
    with pytest.raises(TreeError):
        Tree((Vertex(("a",), "r"), Vertex(("b",), "r")), "r")


def test_duplicate_input_rejected():
    with pytest.raises(TreeError):
        Tree((Vertex(("a",), "r"), Vertex(("a",), "b")), "r")


def test_repeated_input_edge_rejected():
    with pytest.raises(TreeError):
        Tree((Vertex(("a", "a"), "r"),), "r")


def test_root_as_input_rejected():
    with pytest.raises(TreeError):
        Tree((Vertex(("r",), "a"),), "r")


def test_disconnected_rejected():
    with pytest.raises(TreeError):
        Tree((Vertex(("a",), "b"),), "r")


def test_a_cycle_is_caught_by_the_connectivity_check():
    """A cycle of vertices passes every incidence check (each edge is the
    output of one vertex and the input of one) and is caught only by the
    walk up from the root, which never reaches it."""
    with pytest.raises(TreeError) as exc:
        Tree((Vertex(("a",), "b"), Vertex(("b",), "a")), "r")
    assert str(exc.value) == "disconnected edges: ['a', 'b']"


def test_vertices_are_checked_in_the_order_given():
    """A tree keeps its vertices by output edge, but checks them in the
    order given: here that order meets the repeated input `p` before the
    repeated output `a`."""
    vs = [Vertex(("p",), "b"), Vertex(("p",), "a"), Vertex(("q",), "a")]
    with pytest.raises(TreeError, match="^edge 'p' is the input of two vertices$"):
        Tree(vs, "r")
    with pytest.raises(TreeError, match="^edge 'a' is the output of two vertices$"):
        Tree(sorted(vs, key=lambda v: v.output), "r")


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_vertex_order_is_canonical(data):
    """However its vertices are listed, a tree keeps them in one order, by
    output edge: permuted copies have the same vertices, share one face
    list while both live, write the same JSON bytes, and a copy read back
    from that JSON finds the same face list."""
    tree = data.draw(st.sampled_from([t for t in SHAPES4 if t.vertices]))
    a, b = (Tree(data.draw(st.permutations(tree.vertices)), tree.root) for _ in "ab")
    assert a.vertices == b.vertices == tree.vertices
    assert [v.output for v in a.vertices] == sorted(a._above)
    assert faces(a) is faces(b)
    assert dumps(tree_to_json(a)) == dumps(tree_to_json(b))
    assert faces(tree_from_json(tree_to_json(a))) is faces(a)


def test_tree_is_immutable():
    t = c2()
    with pytest.raises(AttributeError):
        t.root = "x"


def test_equality_quotients_input_order():
    s = Tree((Vertex(("a", "b"), "c"),), "c")
    t = Tree((Vertex(("b", "a"), "c"),), "c")
    assert s == t
    assert hash(s) == hash(t)


# -- edge classification ----------------------------------------------------

def test_classify_edges_corolla():
    assert classify_edges(c2()) == {"a": "Leaf", "b": "Leaf", "c": "Root"}


def test_classify_edges_eta_reports_root():
    assert classify_edges(eta("e")) == {"e": "Root"}


@pytest.mark.parametrize("tree", SHAPES4)
def test_classification_is_a_partition(tree):
    kinds = classify_edges(tree)
    assert set(kinds) == set(tree.edges)
    inner = {e for e, k in kinds.items() if k == "Inner"}
    assert inner == tree.inner_edges
    for e in inner:
        assert tree.vertex_above(e) is not None
        assert tree.vertex_below(e) is not None


# -- faces ------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 7))
def test_corolla_face_count(n):
    fs = faces(corolla(n))
    assert len(fs) == n + 1
    assert all(f.kind == COROLLA_FACE for f in fs)


@pytest.mark.parametrize("tree", [t for t in SHAPES4 if len(t.vertices) >= 2])
def test_face_count_formula(tree):
    outer = sum(1 for v in tree.vertices
                if sum(1 for e in v.inputs + (v.output,)
                       if e in tree.inner_edges) == 1)
    assert len(faces(tree)) == len(tree.inner_edges) + outer


def test_face_count_is_the_face_list_length():
    """Counting the faces from the tree agrees with `faces`, the oracle."""
    for tree in tree_shapes(5) + tree_shapes(4, 4):
        assert face_count(tree) == len(faces(tree)), tree


def test_faces_of_two_level_shuffle():
    # edges a_0, b_0, c_0, c_1: one inner, one top, one root face
    t = Tree((Vertex(("a_0", "b_0"), "c_0"), Vertex(("c_0",), "c_1")), "c_1")
    kinds = sorted(f.key for f in faces(t))
    assert kinds == [(INNER_FACE, "c_0"), (ROOT_FACE, "c_1"), (TOP_FACE, "c_0")]


def test_inner_face_merges_vertices():
    t = Tree((Vertex(("a_0", "b_0"), "c_0"), Vertex(("c_0",), "c_1")), "c_1")
    sub = face(t, INNER_FACE, "c_0").subtree
    assert sub.edges == t.edges - {"c_0"}
    assert len(sub.vertices) == 1


@pytest.mark.parametrize("tree", [t for t in SHAPES4 if len(t.vertices) >= 2])
def test_face_of_face_is_path_independent(tree):
    """Iterated faces reaching the same edge set are the same tree."""
    seen = {}
    for f in faces(tree):
        if not f.subtree.vertices:
            continue
        for g in faces(f.subtree):
            prev = seen.get(g.subtree.edges)
            if prev is None:
                seen[g.subtree.edges] = g.subtree
            else:
                assert prev == g.subtree


def test_face_lookup_missing():
    with pytest.raises(TreeError):
        face(c2(), INNER_FACE, "a")


# -- horns ------------------------------------------------------------------

def test_corolla_horn_classification():
    t = c2()
    assert classify_horn(horn(t, face(t, COROLLA_FACE, "b"))) == "root"
    assert classify_horn(horn(t, face(t, COROLLA_FACE, "c"))) == "leaf"


def test_inner_horn_classification():
    t = Tree((Vertex(("a_0", "b_0"), "c_0"), Vertex(("c_0",), "c_1")), "c_1")
    assert classify_horn(horn(t, face(t, INNER_FACE, "c_0"))) == "inner"
    assert classify_horn(horn(t, face(t, TOP_FACE, "c_0"))) == "leaf"
    assert classify_horn(horn(t, face(t, ROOT_FACE, "c_1"))) == "root"


def test_horn_rejects_foreign_face():
    foreign = face(linear(2), INNER_FACE, "1")
    with pytest.raises(TreeError):
        horn(c2(), foreign)


@pytest.mark.parametrize("n", range(1, 5))
def test_corollas_have_root_horns(n):
    assert has_root_horn(corolla(n))


@pytest.mark.parametrize("n", range(1, 4))
def test_extended_corollas_have_root_horns(n):
    assert has_root_horn(extended_corolla(n, 1))
    assert has_root_horn(extended_corolla(n, 2))


def test_double_branch_has_no_root_horn(double_branch_tree):
    assert not has_root_horn(double_branch_tree)


def test_eta_has_no_root_horn():
    assert not has_root_horn(eta())


@pytest.mark.parametrize("tree", [t for t in SHAPES4 if len(t.vertices) >= 2])
def test_has_root_horn_matches_face_list(tree):
    has_root_face = any(f.kind == ROOT_FACE for f in faces(tree))
    assert has_root_horn(tree) == has_root_face


# -- grafting ---------------------------------------------------------------

def test_graft_counts():
    g = graft(corolla(1, leaves=("l",), root="r"), "l",
              corolla(2, leaves=("x", "y"), root="l"))
    assert len(g.vertices) == 2
    assert g.leaves == frozenset({"x", "y"})


def test_graft_rejects_non_leaf():
    with pytest.raises(TreeError):
        graft(c2(), "c", corolla(1, leaves=("x",), root="c"))


def test_graft_rejects_name_collision():
    with pytest.raises(TreeError):
        graft(c2(), "a", corolla(1, leaves=("b",), root="a"))


def test_graft_stem_top_roundtrip():
    for t in (extended_corolla(2, 2), c2_over_chain()):
        es = stem_edges(t)
        assert graft(linear(len(es) - 1, edges=es), es[0], branch(t, es[0])) == t


def c2_over_chain():
    return Tree((Vertex(("a", "b"), "m"), Vertex(("m",), "n"),
                 Vertex(("n",), "r")), "r")


# -- isomorphism ------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 5))
def test_corolla_automorphism_count(n):
    aut = isomorphisms(corolla(n), corolla(n))
    assert len(aut) == [1, 1, 2, 6, 24][n]


def test_eta_has_one_automorphism():
    assert isomorphisms(eta(), eta()) == [{"e": "e"}]


def test_automorphisms_form_a_group():
    t = graft(c2(), "a", corolla(2, leaves=("p", "q"), root="a"))
    aut = isomorphisms(t, t)
    keyed = {frozenset(m.items()) for m in aut}
    ident = {e: e for e in t.edges}
    assert frozenset(ident.items()) in keyed
    for m in aut:
        inv = {v: k for k, v in m.items()}
        assert frozenset(inv.items()) in keyed
        for m2 in aut:
            comp = {e: m2[m[e]] for e in t.edges}
            assert frozenset(comp.items()) in keyed


def test_shuffles_t0_t1_not_isomorphic():
    t0 = Tree((Vertex(("a_0", "b_0"), "c_0"), Vertex(("c_0",), "c_1")), "c_1")
    t1 = Tree((Vertex(("a_0",), "a_1"), Vertex(("b_0",), "b_1"),
               Vertex(("a_1", "b_1"), "c_1")), "c_1")
    assert not isomorphic(t0, t1)


def test_isomorphisms_are_bijections():
    s = corolla(2, leaves=("a", "b"), root="c")
    t = corolla(2, leaves=("x", "y"), root="z")
    ms = isomorphisms(s, t)
    assert len(ms) == 2
    for m in ms:
        assert m["c"] == "z"
        assert sorted(m.values()) == ["x", "y", "z"]


def _reference_edge_bijections(s, e1, t, e2):
    """The recursive definition of `isomorphisms`, kept as its reference:
    the bijections of the branches above e1 and e2, from those of the
    inputs' branches under each matching of the inputs, in
    `itertools.permutations` order."""
    if branch(s, e1).canonical_key() != branch(t, e2).canonical_key():
        return
    v1, v2 = s.vertex_above(e1), t.vertex_above(e2)
    if v1 is None:
        yield {e1: e2}
        return
    for perm in itertools.permutations(range(len(v2.inputs))):
        parts = [list(_reference_edge_bijections(s, a, t, v2.inputs[perm[i]]))
                 for i, a in enumerate(v1.inputs)]
        for combo in itertools.product(*parts):
            m = {e1: e2}
            for part in combo:
                m.update(part)
            yield m


def _renamed(tree):
    m = {e: f"n_{e}" for e in tree.edges}
    return Tree(tuple(Vertex(tuple(m[e] for e in v.inputs), m[v.output])
                      for v in tree.vertices), m[tree.root])


def test_isomorphisms_match_the_recursive_reference():
    """Same bijections, in the same order and written alike, on every
    ordered pair of shapes with at most 4 vertices and on each shape
    against a copy with renamed edges."""
    pairs = list(itertools.product(SHAPES4, repeat=2)) + [(t, _renamed(t)) for t in SHAPES4]
    for s, t in pairs:
        want = list(_reference_edge_bijections(s, s.root, t, t.root))
        got = isomorphisms(s, t)
        assert [list(m.items()) for m in got] == [list(m.items()) for m in want], (s, t)


def test_isomorphisms_of_a_long_chain():
    """A chain far deeper than the recursion limit has one automorphism."""
    chain = linear(3000)
    assert isomorphisms(chain, chain) == [{e: e for e in chain.edges}]


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_canonical_key_invariant_under_renaming(data):
    tree = data.draw(st.sampled_from(SHAPES4))
    names = sorted(tree.edges)
    new = data.draw(st.permutations([f"n{i}" for i in range(len(names))]))
    m = dict(zip(names, new))
    renamed = Tree(tuple(Vertex(tuple(m[e] for e in v.inputs), m[v.output])
                         for v in tree.vertices), m[tree.root])
    assert isomorphic(tree, renamed)
    assert len(isomorphisms(tree, renamed)) == len(isomorphisms(tree, tree))


# -- subtrees, stems, initial segments --------------------------------------

def test_subtree_from_edges_corolla_inside_shuffle():
    t = Tree((Vertex(("a_0", "b_0"), "c_0"), Vertex(("c_0",), "c_1")), "c_1")
    sub = subtree_from_edges(t, {"a_0", "b_0", "c_0"})
    assert sub == Tree((Vertex(("a_0", "b_0"), "c_0"),), "c_0")


def test_subtree_from_edges_rejects_uncapped_branch():
    with pytest.raises(TreeError):
        subtree_from_edges(c2(), {"a", "c"})


def test_subtree_from_edges_rejects_unknown_and_empty():
    with pytest.raises(TreeError):
        subtree_from_edges(c2(), {"zz"})
    with pytest.raises(TreeError):
        subtree_from_edges(c2(), set())


def _planar_positions(tree):
    """Edge -> position in the planar pre-order from the root."""
    order, todo = {}, [tree.root]
    while todo:
        e = todo.pop()
        order[e] = len(order)
        v = tree.vertex_above(e)
        if v is not None:
            todo.extend(reversed(v.inputs))
    return order


def test_subtree_from_edges_is_the_cell_tree_in_planar_order():
    for tree in SHAPES4:
        position = _planar_positions(tree)
        for cell, want in Complex([tree]).cells.items():
            got = subtree_from_edges(tree, cell)
            assert got == want, (tree, sorted(cell))
            for v in got.vertices:
                assert sorted(v.inputs, key=position.get) == list(v.inputs), got


def test_subtree_from_edges_rejects_every_non_cell():
    for tree in tree_shapes(3):
        cells = Complex([tree]).cells
        edges = sorted(tree.edges)
        for size in range(len(edges) + 1):
            for es in itertools.combinations(edges, size):
                if frozenset(es) not in cells:
                    with pytest.raises(TreeError):
                        subtree_from_edges(tree, es)


def test_deep_trees_need_no_recursion():
    n = 1200
    chain = linear(n)
    assert subtree_from_edges(chain, chain.edges) == chain
    assert subtree_from_edges(chain, map(str, range(601))) == linear(600)
    upper = [Vertex((f"u{i}",), f"u{i + 1}") for i in range(n)]
    upper.append(Vertex((f"u{n}", "b"), "m0"))
    lower = [Vertex((f"m{i}",), f"m{i + 1}") for i in range(n)]
    t = Tree(upper + lower, f"m{n}")
    es = stem_edges(t)
    assert branch(t, es[0]) == Tree(upper, "m0")
    assert graft(linear(len(es) - 1, edges=es), "m0", Tree(upper, "m0")) == t


def test_canonical_key_of_a_long_chain():
    """`canonical_key` and `isomorphic` build no recursion as deep as the
    tree, and compare keys without one either."""
    chain = linear(5000)
    assert isomorphic(chain, linear(5000, edges=[f"x{i}" for i in range(5001)]))
    assert not isomorphic(chain, linear(4999))
    assert not isomorphic(chain, graft(linear(4999), "0", c2("p", "q", "0")))


def test_a_stump_is_not_a_leaf():
    bare = Tree([Vertex(("a",), "r")], "r")
    capped = Tree([Vertex(("a",), "r"), Vertex((), "a")], "r")
    assert not isomorphic(bare, capped)
    assert isomorphisms(bare, capped) == [] == isomorphisms(capped, bare)
    assert isomorphisms(capped, capped) == [{"a": "a", "r": "r"}]


def test_stem_and_top_of_linear_tree():
    t = linear(2)
    assert stem_edges(t) == ["0", "1", "2"]
    assert branch(t, stem_edges(t)[0]) == eta("0")


def test_stem_of_extended_corolla():
    t = extended_corolla(2, 1)
    assert stem_edges(t) == ["c"]          # root vertex is binary: no chain
    top = branch(t, stem_edges(t)[0])
    assert top == t




# -- faces built without checks ---------------------------------------------

def _split_tree(tree):
    """The split tree W of the `8.5` root-horn certificate: a fresh edge a'
    between the stem above the root vertex and the vertex on top of it."""
    r = next(e for e in tree.vertex_above(tree.root).inputs
             if tree.vertex_above(e) is not None)
    a0 = stem_edges(branch(tree, r))[0]
    v = tree.vertex_above(a0)
    vs = [Vertex(x.inputs, "a'") if x is v else x for x in tree.vertices]
    return Tree(tuple(vs) + (Vertex(("a'",), a0),), tree.root)


def _has_retract_root_horn(tree):
    return (len(tree.vertices) >= 2 and has_root_horn(tree)
            and not is_extended_corolla(tree))


def test_split_tree_is_the_root_horn_certificate_ambient():
    tree = graft(c2(), "a", corolla(2, leaves=("p", "q"), root="a"))
    assert _has_retract_root_horn(tree)
    sub = root_horn_certificate(tree).sub
    assert sub.ambient_generators == (_split_tree(tree),)


def _assert_same_tree(built, checked):
    assert built.vertices == checked.vertices
    assert built.root == checked.root
    assert built.edges == checked.edges
    # vertex_above and vertex_below agree on every edge
    assert built._above == checked._above and built._below == checked._below
    assert built == checked and hash(built) == hash(checked)


def test_unchecked_faces_equal_checked_trees():
    """Every face of every iterated face (`closure_cells`) of the shapes
    with at most five vertices, and of the `8.5` split trees of the shapes
    with at most four whose root horn is certified through a retract, is
    the tree that the checked constructor builds from its vertices and
    root.  A face is a function of its vertex tuple and root, so each such
    pair is checked once: 29,386 of them."""
    trees = tree_shapes(5) + [_split_tree(t) for t in SHAPES4 if _has_retract_root_horn(t)]
    built = {}
    for tree in trees:
        for cell in closure_cells(tree).values():
            for f in faces(cell) if cell.vertices else ():
                built.setdefault((f.subtree.vertices, f.subtree.root), f.subtree)
    assert len(built) == 29_386
    for (vertices, root), face_tree in built.items():
        _assert_same_tree(face_tree, Tree(vertices, root))


def test_faces_build_no_checked_tree(monkeypatch):
    def refuse(self, vertices, root):
        raise AssertionError("a face was built through the checked constructor")

    shapes = [t for t in tree_shapes(4) if t.vertices]
    monkeypatch.setattr(Tree, "__init__", refuse)
    for t in shapes:
        assert [f.key for f in _faces_uncached(t)] == [f.key for f in faces(t)]


def test_faces_follow_the_tree_as_written():
    """Equal trees written with other input orders get faces of their own:
    an inner face keeps the input order of the tree it was asked for."""
    t = Tree([Vertex(("a", "b"), "c"), Vertex(("x", "y"), "a")], "c")
    r = Tree([Vertex(("b", "a"), "c"), Vertex(("y", "x"), "a")], "c")
    assert t == r
    assert face(t, INNER_FACE, "a").subtree.vertices == (Vertex(("x", "y", "b"), "c"),)
    assert face(r, INNER_FACE, "a").subtree.vertices == (Vertex(("b", "y", "x"), "c"),)


def _as_written(tree):
    return tree.root, tree.vertices


def _face_rows(face_list):
    return [(f.kind, f.label, f.subtree.edges, f.subtree.vertices) for f in face_list]


def _reversed_inputs(tree):
    return Tree([Vertex(v.inputs[::-1], v.output) for v in tree.vertices], tree.root)


def test_complex_faces_are_the_subtrees_on_their_edges():
    """In `Complex([tree])`, for every shape with at most five vertices and
    its copy with reversed inputs, each face of each cell is the subtree of
    the tree on the face's edges, with the tree's input order at each
    vertex; and each face list is, face by face and as written, the one
    `_faces_uncached` builds."""
    shapes = tree_shapes(5)
    built = {}      # each cell as written -> its face rows, built afresh
    for tree in shapes + [_reversed_inputs(t) for t in shapes]:
        amb = Complex([tree])
        expected = {}
        for cell, face_list in zip(amb.cell_trees, amb.face_lists):
            key = (cell.root, cell.vertices)
            if key not in built:
                built[key] = _face_rows(_faces_uncached(cell)) if cell.vertices else []
            assert _face_rows(face_list) == built[key]
            for f in face_list:
                es = f.subtree.edges
                if es not in expected:
                    expected[es] = _as_written(subtree_from_edges(tree, es))
                assert _as_written(f.subtree) == expected[es], (tree, f.key)


def test_a_complex_holds_one_tree_per_written_form():
    """In `Complex([tree])`, for every shape with at most five vertices and
    its copy with reversed inputs, no two distinct tree objects among the
    cells and their faces are written alike."""
    shapes = tree_shapes(5)
    for tree in shapes + [_reversed_inputs(t) for t in shapes]:
        amb = Complex([tree])
        seen = {}
        for t in [*amb.cell_trees, *(f.subtree for fs in amb.face_lists for f in fs)]:
            assert seen.setdefault((t.root, t.vertices), t) is t, (tree, t)


def test_stump_faces_do_not_depend_on_a_closure(monkeypatch):
    """Removing a stump keeps the edge set, so the top face at the stump has
    the tree's own edges; the faces are the same whether or not a tree
    written alike was closed first."""
    monkeypatch.setattr(trees_module, "_LIVE_TREES", weakref.WeakValueDictionary())
    t = Tree([Vertex(("a", "s"), "r"), Vertex((), "s")], "r")
    fresh = _face_rows(_faces_uncached(t))
    twin = Tree(t.vertices, t.root)
    closure_cells(twin)
    assert faces(t) is faces(twin)
    assert _face_rows(faces(t)) == fresh
    assert face(t, TOP_FACE, "s").subtree.vertices == (Vertex(("a", "s"), "r"),)


def test_face_lists_are_shared_across_complexes():
    """Complexes of two trees written alike hold the same face list objects."""
    for tree in SHAPES4:
        one = Complex([Tree(tree.vertices, tree.root)])
        other = Complex([Tree(tree.vertices, tree.root)])
        assert all(a is b for a, b, t in zip(one.face_lists, other.face_lists,
                                             one.cell_trees) if t.vertices)


def test_face_trees_go_with_their_certificates(monkeypatch):
    """Build and verify the root-horn certificates of the shapes with at
    most four vertices one at a time, dropping each: the table of live
    trees, empty at the start, is empty again afterwards."""
    live = weakref.WeakValueDictionary()
    monkeypatch.setattr(trees_module, "_LIVE_TREES", live)
    sizes = []
    for tree in tree_shapes(4):
        if len(tree.vertices) >= 2 and has_root_horn(tree):
            assert verify_certificate(root_horn_certificate(tree)).valid
            sizes.append(len(live))
    del tree
    gc.collect()
    assert len(sizes) == 153 and min(sizes) > 0
    assert len(live) == 0


# -- value types ------------------------------------------------------------

def test_vertex_and_face_hash_and_print_as_their_field_tuples():
    """A vertex and a face hash as the tuple of their fields, in field
    order, and print as they did when they were frozen dataclasses: set and
    dict orders, and so every output, follow from these hashes."""
    v = Vertex(("a", "b"), "c")
    assert hash(v) == hash(tuple(v)) == hash((("a", "b"), "c"))
    assert repr(v) == "Vertex(inputs=('a', 'b'), output='c')"
    f = face(c2(), COROLLA_FACE, "a")
    assert hash(f) == hash(tuple(f)) == hash((COROLLA_FACE, "a", eta("a")))
    assert repr(f) == "FaceDescriptor(kind='colour', label='a', subtree=Tree(eta 'a'))"
    assert [repr(g) for g in faces(linear(2))] == [
        "FaceDescriptor(kind='inner', label='1', subtree=Tree([(0)->2], root='2'))",
        "FaceDescriptor(kind='top', label='1', subtree=Tree([(1)->2], root='2'))",
        "FaceDescriptor(kind='root', label='2', subtree=Tree([(0)->1], root='1'))"]


def test_vertex_and_face_are_immutable_and_keep_their_properties():
    v = Vertex(("a", "b"), "c")
    f = face(linear(2), INNER_FACE, "1")
    for obj, name in ((v, "output"), (v, "arity"), (f, "label"), (f, "key")):
        with pytest.raises(AttributeError):
            setattr(obj, name, "x")
    with pytest.raises(AttributeError):
        v.colour = "x"
    assert (v.inputs, v.output, v.arity) == (("a", "b"), "c", 2)
    assert Vertex((), "c").arity == 0
    assert f.key == (INNER_FACE, "1") and f.kind == INNER_FACE and f.label == "1"
    assert f.subtree == Tree((Vertex(("0",), "2"),), "2")
