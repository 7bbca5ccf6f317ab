"""Acceptance gate: the headline finite-combinatorics properties.

Each test is exact or property-based over an exhaustively enumerated range;
together they pin down corolla faces, shuffle counts, the Kan behaviour of
the operad corpus, the built-in certificate families, subcomplex algebra and
fault detection.
"""

import dataclasses
import hashlib
import json
import random
from pathlib import Path

import pytest

from dendro.anodyne import (AnodyneClass, Certificate, HornStep,
                            search_certificate, verify_certificate)
from dendro.complexes import representable
from dendro.jsonio import kan_report_to_json
from dendro.kan import kan_report, tree_shapes
from dendro.lemmas import (binary_tensor_certificate, codim_base_cells,
                           extended_corolla_split_certificate,
                           root_horn_certificate)
from dendro.operads import (CORPUS, TableOperad, table_operad_from,
                            validate_operad)
from dendro.shuffles import c2_shuffle, filtration_base, shuffles
from dendro.trees import (Tree, Vertex, c2, corolla, extended_corolla, faces,
                          has_root_horn)


# -- 1: corolla face counts -------------------------------------------------

@pytest.mark.parametrize("n", range(1, 7))
def test_acceptance_1_corolla_faces(n):
    assert len(faces(corolla(n))) == n + 1


# -- 2: shuffle counts ------------------------------------------------------

def test_acceptance_2_shuffle_counts():
    for n in range(5):
        assert len(shuffles(c2(), n)) == n + 1
    for n in range(1, 5):
        assert len(shuffles(extended_corolla(n, 1), 1)) == n + 2


# -- 3: discrete abelian groups are fully Kan with unique fillers -----------

_GOLDENS = json.loads((Path(__file__).parent / "kan_goldens.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", ["z2", "z3", "z4", "z2xz2"])
def test_acceptance_3_discrete_groups_fully_kan(name):
    """Fully Kan with unique fillers at bound 3, and the report's JSON is
    the one recorded in kan_goldens.json."""
    rep = kan_report(CORPUS[name](), 3, name=name)
    assert rep.fully_kan, rep.witnesses
    assert rep.fully_unique, rep.witnesses
    text = json.dumps(kan_report_to_json(rep), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == _GOLDENS[f"{name}@3"]


# -- 4: the one-object groupoid is fully Kan but not uniquely so ------------

def test_acceptance_4_one_object_groupoid(bz2):
    rep = kan_report(bz2, 3)
    assert rep.fully_kan
    assert rep.strict
    assert not rep.fully_unique
    corolla_witnesses = [w for w in rep.witnesses
                         if w.issue == "non_unique" and len(w.tree.vertices) == 1]
    assert corolla_witnesses
    assert any(w.filler_count == 2 for w in corolla_witnesses)


# -- 5: the multiplicative monoid is inner Kan only -------------------------

def test_acceptance_5_monoid_obstruction(mult01):
    rep = kan_report(mult01, 3)
    assert rep.inner_kan
    assert not rep.fully_kan

    def is_c2_root_obstruction(w):
        if w.issue != "unfillable" or w.horn_class != "root":
            return False
        if len(w.tree.vertices) != 1 or w.tree.vertices[0].arity != 2:
            return False
        colours = {}
        for key, d in w.horn_map.assignment:
            colours[key[1]] = d.edge_colours[key[1]]
        root = w.tree.root
        leaf = next(e for e in colours if e != root)
        return colours.get(leaf) == "0" and colours.get(root) == "1"

    assert any(is_c2_root_obstruction(w) for w in rep.witnesses)


# -- 6: the binary-tensor certificates --------------------------------------

@pytest.mark.parametrize("n", [1, 2])
def test_acceptance_6_binary_tensor_replay(n):
    rep = verify_certificate(binary_tensor_certificate(n))
    assert rep.valid, rep.violations
    assert rep.classes_used.count(AnodyneClass.BINARY_EXTENDED_LEFT) == 1
    assert all(c in (AnodyneClass.INNER, AnodyneClass.LEFT,
                     AnodyneClass.BINARY_EXTENDED_LEFT)
               for c in rep.classes_used)


# -- 7: the split-tree certificates -----------------------------------------

@pytest.mark.parametrize("n,k", [(1, 1), (1, 2), (2, 2)])
def test_acceptance_7_split_tree_replay(n, k):
    rep = verify_certificate(extended_corolla_split_certificate(n, k))
    assert rep.valid, rep.violations
    assert rep.classes_used[-1] is AnodyneClass.INNER


# -- 8: inner certificates found by search ----------------------------------

def _sample_trees():
    t3 = Tree((Vertex(("p", "q"), "x"), Vertex(("x",), "y"),
               Vertex(("y", "z"), "r")), "r")
    t4 = Tree((Vertex(("p", "q"), "a"), Vertex(("a",), "b"),
               Vertex(("s",), "t"), Vertex(("b", "t"), "c")), "c")
    t5 = Tree((Vertex(("u", "v"), "p"), Vertex(("p",), "q"),
               Vertex(("q",), "r"), Vertex(("w",), "x"),
               Vertex(("r", "x"), "c")), "c")
    return [(t3, "r"), (t4, "c"), (t5, "c")]


@pytest.mark.parametrize("tree,v", _sample_trees())
def test_acceptance_8_codim_search(tree, v):
    amb = representable(tree)
    start = amb.closure_subcomplex(codim_base_cells(tree, v))
    res = search_certificate(amb, start, amb.full(),
                             allowed=AnodyneClass.INNER, budget=100_000)
    assert res.certificate is not None, f"examined {res.examined}"
    rep = verify_certificate(res.certificate)
    assert rep.valid
    assert rep.overall_class is AnodyneClass.INNER


# -- 9: extended-left certificates for every small root horn ----------------

def test_acceptance_9_root_horns_extended_left():
    checked = 0
    for tree in tree_shapes(4):
        if not has_root_horn(tree):
            continue
        if len(tree.vertices) == 1:
            leaves = sorted(tree.leaves)
            omits = [("colour", leaf) for leaf in leaves]
        else:
            omits = [None]
        for omitted in omits:
            cert = root_horn_certificate(tree, omitted)
            rep = verify_certificate(cert)
            assert rep.valid, (tree, omitted, rep.violations)
            assert rep.overall_class <= AnodyneClass.EXTENDED_LEFT, \
                (tree, omitted, rep.overall_class)
            checked += 1
    assert checked >= 20


# -- 10: subcomplex algebra around the filtration base ----------------------

@pytest.mark.parametrize("n", range(1, 4))
def test_acceptance_10_filtration_base_algebra(n):
    base = filtration_base(n)
    amb = base.ambient
    assert base.is_face_closed()
    assert base.is_proper()
    t0 = c2_shuffle(n, 0)
    omega_t0 = amb.closure_subcomplex([t0.edges])
    horn = amb.horn_subcomplex(t0.edges, ("inner", "c_0"))
    assert omega_t0.intersection(base) == horn


# -- 11: fault injection ----------------------------------------------------

def _certificate_corruptions():
    rng = random.Random(20240824)
    cert = binary_tensor_certificate(2)
    amb = cert.ambient()
    out = []
    horn_indices = [i for i, s in enumerate(cert.steps)
                    if isinstance(s, HornStep)]
    for _ in range(8):     # wrong omitted face key
        i = rng.choice(horn_indices)
        step = cert.steps[i]
        other = rng.choice([f.key for f in faces(amb.tree_of(step.cell))
                            if f.key != step.omitted])
        steps = list(cert.steps)
        steps[i] = HornStep(step.cell, other)
        out.append(("wrong-omit", i, dataclasses.replace(cert, steps=tuple(steps))))
    for _ in range(6):     # dropped step
        i = rng.choice(horn_indices)
        steps = list(cert.steps)
        del steps[i]
        out.append(("dropped-step", i, dataclasses.replace(cert, steps=tuple(steps))))
    for _ in range(6):     # cell replaced by a foreign edge set
        i = rng.choice(horn_indices)
        steps = list(cert.steps)
        steps[i] = HornStep(frozenset({f"zz{rng.randrange(10)}"}),
                            steps[i].omitted)
        out.append(("foreign-cell", i, dataclasses.replace(cert, steps=tuple(steps))))
    return out


def test_acceptance_11a_certificate_corruptions_detected():
    corruptions = _certificate_corruptions()
    assert len(corruptions) == 20
    for kind, i, bad in corruptions:
        rep = verify_certificate(bad)
        assert not rep.valid, (kind, i)
        assert rep.violations, (kind, i)
        assert all(v.step_index is not None for v in rep.violations), (kind, i)


def test_acceptance_11a_violation_texts_pinned(check_pinned):
    for n, (kind, i, bad) in enumerate(_certificate_corruptions()):
        check_pinned(f"11a-{n:02d}-{kind}-{i}", verify_certificate(bad))


def test_acceptance_11b_operad_corruptions_detected(bz2):
    rng = random.Random(8)
    table = table_operad_from(bz2, max_arity=4)
    assert validate_operad(table, max_arity=2) == []
    low_keys = sorted((k for k in table.composition
                       if len(table.profiles[k[0]][0]) <= 2
                       and len(table.profiles[k[2]][0]) <= 2), key=str)
    for key in rng.sample(low_keys, 6):
        good = table.composition[key]
        other = next(op for op in sorted(table.profiles, key=str)
                     if table.profiles[op] == table.profiles[good] and op != good)
        bad = dict(table.composition)
        bad[key] = other
        corrupt = TableOperad(colours=table.colours, profiles=table.profiles,
                              identities_table=table.identities_table,
                              composition=bad, symmetry=table.symmetry)
        errors = validate_operad(corrupt, max_arity=2)
        assert errors, key
