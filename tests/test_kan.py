"""Horn maps, fillers and Kan reports."""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import dendro
from dendro.complexes import Complex
from dendro.jsonio import dumps, kan_report_to_json
from dendro.kan import (HornMap, _horn_maps, arity_needed, enumerate_horn_maps, fillers,
                        kan_report, tree_shapes)
from dendro.nerves import (CompiledShape, dendrex_closure, dendrices,
                           dendrices_with_colours, face_of)
from dendro.operads import (CORPUS, SMCOperad, TableOperad, b_z2_smc,
                             one_object_abelian_group_smc, table_operad_from)
from dendro.shuffles import c2_tensor_complex, filtration_base
from dendro.trees import (COROLLA_FACE, Tree, Vertex, c2, corolla, face,
                          faces, horn, isomorphic, linear)


def _corolla_root_horn():
    t = c2()
    return t, horn(t, face(t, COROLLA_FACE, "b"))


def test_tree_shapes_are_pairwise_nonisomorphic():
    shapes = tree_shapes(3)
    for s, t in itertools.combinations(shapes, 2):
        assert not isomorphic(s, t)


def test_tree_shapes_respect_bounds():
    for t in tree_shapes(3, max_arity=2):
        assert 1 <= len(t.vertices) <= 3
        assert all(1 <= v.arity <= 2 for v in t.vertices)


def test_tree_shapes_small_counts():
    assert len(tree_shapes(1, max_arity=3)) == 3    # corollas C_1, C_2, C_3
    assert len(tree_shapes(1, max_arity=3)) < len(tree_shapes(2, max_arity=3))


def test_horn_map_counts_c2_root(z2, bz2):
    _, h = _corolla_root_horn()
    assert len(enumerate_horn_maps(z2, h)) == 4     # free colours on a, c
    assert len(enumerate_horn_maps(bz2, h)) == 1    # single colour


def test_horn_maps_match_dendrex_restrictions(z2):
    """For a fully Kan nerve, horn maps are exactly dendrex restrictions."""
    tree = Tree((Vertex(("a_0", "b_0"), "c_0"), Vertex(("c_0",), "c_1")), "c_1")
    for f in faces(tree):
        h = horn(tree, f)
        kept = [g for g in faces(tree) if g != f]
        from_maps = {tuple(sorted(m.assignment)) for m in enumerate_horn_maps(z2, h)}
        from_dendrices = {
            tuple(sorted((g.key, face_of(z2, d, g)) for g in kept))
            for d in dendrices(z2, tree)}
        assert from_maps == from_dendrices


def test_fillers_group_solve(z2):
    _, h = _corolla_root_horn()
    want = {"a": "1", "c": "0"}
    m = next(m for m in enumerate_horn_maps(z2, h)
             if all(dict(m.assignment)[("colour", e)].edge_colours[e] == v
                    for e, v in want.items()))
    fs = fillers(z2, m)
    assert len(fs) == 1
    assert fs[0].edge_colours["b"] == "1"


def test_fillers_monoid_obstruction(mult01):
    _, h = _corolla_root_horn()
    m = next(m for m in enumerate_horn_maps(mult01, h)
             if dict(m.assignment)[("colour", "a")].edge_colours["a"] == "0"
             and dict(m.assignment)[("colour", "c")].edge_colours["c"] == "1")
    assert fillers(mult01, m) == []


def test_fillers_bz2_corolla_pair(bz2):
    _, h = _corolla_root_horn()
    (m,) = enumerate_horn_maps(bz2, h)
    assert len(fillers(bz2, m)) == 2


def test_filler_restrictions_agree_with_horn_map(z2):
    tree, h = _corolla_root_horn()
    for m in enumerate_horn_maps(z2, h):
        want = dict(m.assignment)
        for d in fillers(z2, m):
            for g in faces(tree):
                if g.key in want:
                    assert face_of(z2, d, g) == want[g.key]


def test_kan_report_z2_bound2(z2):
    rep = kan_report(z2, 2)
    assert rep.inner_kan and rep.dendroidal_kan and rep.fully_kan
    assert rep.strict and rep.fully_unique
    assert rep.horns_checked > 0
    assert rep.witnesses == []
    assert "fully_kan=True" in rep.summary()


def test_kan_report_mult01_bound2(mult01):
    rep = kan_report(mult01, 2)
    assert rep.inner_kan
    assert not rep.fully_kan
    assert any(w.horn_class == "root" and w.issue == "unfillable"
               for w in rep.witnesses)


@pytest.mark.parametrize("name", ["z2", "bz2", "mult01"])
def test_flag_implications(name, z2, bz2, mult01):
    rep = kan_report({"z2": z2, "bz2": bz2, "mult01": mult01}[name], 2)
    if rep.fully_kan:
        assert rep.dendroidal_kan
    if rep.dendroidal_kan:
        assert rep.inner_kan
    if rep.fully_unique:
        assert rep.strict


def test_strict_inner_kan_property(bz2, mult01):
    """Nerves are strictly inner Kan: inner horns of >=2-vertex trees have
    exactly one filler (no inner witnesses even when root horns fail)."""
    for p in (bz2, mult01):
        rep = kan_report(p, 3)
        assert rep.inner_kan
        assert all(w.horn_class != "inner" for w in rep.witnesses)


# -- the compiled enumerator against the reference oracle --------------------

def _brute_force_maps(p, cells):
    """Every family of dendrices on the given cells (trees), in their order,
    as a product of the unconstrained enumerations, whose closures exist and
    agree pairwise: the maps out of the subcomplex the cells generate."""

    def closure(d):
        try:
            return dendrex_closure(p, d)
        except ValueError:
            return None

    lists = [[(d, clo) for d in dendrices_with_colours(p, t)
              if (clo := closure(d)) is not None] for t in cells]
    return [tuple(d for d, _ in combo) for combo in itertools.product(*lists)
            if all(a[k] == b[k] for (_, a), (_, b) in itertools.combinations(combo, 2)
                   for k in a.keys() & b.keys())]


def _brute_force_horn_maps(p, h):
    """The brute-force maps out of the kept faces, taken in kept-face order
    (largest first, then by key), as horn maps."""
    kept = sorted((g for g in faces(h.tree) if g != h.omitted),
                  key=lambda g: (-len(g.subtree.edges), g.key))
    return [HornMap(h, tuple(zip([g.key for g in kept], ds)))
            for ds in _brute_force_maps(p, [g.subtree for g in kept])]


@pytest.mark.parametrize("name,bound", [("z2", 2), ("bz2", 2), ("mult01", 2),
                                        ("z3", 1), ("table:z2", 2), ("table:bz2", 2),
                                        ("table:mult01", 2)])
def test_horn_maps_equal_the_brute_force_oracle(name, bound):
    """On corpus operads, and on them as explicit tables (the operads the
    CLI reads from JSON) up to arity 5, which every face of a tree of
    `tree_shapes(2)` fits."""
    table = name.startswith("table:")
    p = table_operad_from(CORPUS[name[6:]](), 5) if table else CORPUS[name]()
    for tree in tree_shapes(bound):
        for f in faces(tree):
            h = horn(tree, f)
            assert enumerate_horn_maps(p, h) == _brute_force_horn_maps(p, h), (tree, f.key)


@pytest.mark.parametrize("complex_", ["c2_tensor", "filtration_base"])
@pytest.mark.parametrize("name", sorted(CORPUS) + ["bz2_nonassociative"])
def test_maps_out_of_a_complex_equal_the_brute_force_oracle(name, complex_, request):
    """The horn-map enumerator lists the maps out of any subcomplex, given
    by its maximal cells: the two generators of the tensor of the binary
    corolla with the 1-simplex, or the maximal cells of the base of its
    filtration."""
    p = (request.getfixturevalue(name) if name == "bz2_nonassociative"
         else CORPUS[name]())
    if complex_ == "c2_tensor":
        amb = c2_tensor_complex(1)
        cells = [g.edges for g in amb.generators]
    else:
        base = filtration_base(1)
        amb, cells = base.ambient, base.maximal_cells()
    assert len(cells) == {"c2_tensor": 2, "filtration_base": 4}[complex_]
    shape = CompiledShape(p, amb)
    got = [tuple(map(shape.dendrex, ids))
           for ids in _horn_maps(shape, [amb.index[c] for c in cells])]
    want = _brute_force_maps(p, [amb.cells[c] for c in cells])
    assert got == want
    assert want


@pytest.mark.parametrize("name,bound", [(name, 2) for name in sorted(CORPUS)]
                         + [("bz2_nonassociative", 3)])
def test_maps_out_of_a_representable_are_its_dendrices(name, bound, request):
    """The maps out of a tree's representable are the dendrices of the tree
    whose closure exists, in `labellings` order: `_horn_maps` on the top
    cell alone lists the top node's ids."""
    p = (request.getfixturevalue(name) if name == "bz2_nonassociative"
         else CORPUS[name]())
    trees = tree_shapes(bound) if name != "bz2_nonassociative" else [linear(bound)]
    dropped = 0
    for tree in trees:
        shape = CompiledShape(p, Complex([tree]))
        top = len(shape.nodes) - 1
        ids = shape.nodes[top].ids
        shape.close(shape.nodes[top])
        want = [(i,) for i in ids if shape.closures[i] is not None]
        assert _horn_maps(shape, [top]) == want, tree
        dropped += len(ids) - len(want)
    assert (dropped > 0) == (name == "bz2_nonassociative")


def _with_composition(table, entries):
    """The table with these composition entries; None removes an entry."""
    composition = dict(table.composition)
    composition.update(entries)
    return TableOperad(colours=table.colours, profiles=table.profiles,
                       identities_table=table.identities_table,
                       composition={k: v for k, v in composition.items() if v is not None},
                       symmetry=table.symmetry)


def test_horn_maps_drop_conflicting_closures_as_the_oracle_does(bz2_nonassociative):
    """On a non-associative table the candidates whose closures raise are
    dropped, in the oracle's order."""
    p = bz2_nonassociative

    def conflicts(d):
        try:
            dendrex_closure(p, d)
        except ValueError:
            return True
        return False

    assert any(conflicts(d) for d in dendrices(p, linear(3)))
    tree = linear(4)
    for f in faces(tree):
        h = horn(tree, f)
        assert enumerate_horn_maps(p, h) == _brute_force_horn_maps(p, h), f.key


def test_missing_composition_propagates(bz2):
    """A composite the table lacks is an error, not a dropped candidate."""
    table = table_operad_from(bz2, 2)
    g0, g1 = bz2.operations(("*",), "*")
    p = _with_composition(table, {(g1, 0, g1): None})
    tree = linear(3)
    with pytest.raises(KeyError, match="no entry"):
        enumerate_horn_maps(p, horn(tree, faces(tree)[0]))
    with pytest.raises(KeyError, match="no entry"):
        kan_report(p, 2, max_arity=1)


def test_composite_of_another_profile_gets_no_verdict(z2):
    """A table whose 12 binary composites with output 0 are sent to output 1
    is not an operad: `kan_report` raises one `ValueError` naming the face
    and the composite, and gives no verdict.  JSON cannot reach this:
    `operad_from_json` rejects such rows."""
    table = table_operad_from(z2, 3)
    wrong = {k: (ins, "1", m) for k, (ins, out, m) in table.composition.items()
             if len(ins) == 2 and out == "0"}
    assert len(wrong) == 12
    with pytest.raises(ValueError) as exc:
        kan_report(_with_composition(table, wrong), 2, max_arity=2)
    assert str(exc.value) == (
        "face ('inner', 'e2') of Tree([(e1,e2)->e0, (e3)->e2], root='e0'): composite "
        "(('0', '0'), '1', 'id_0') does not have the profile of the merged vertex")


def _flags_from_witnesses(rep):
    """The five flags as their definitions read them off the witnesses."""
    unfillable = [w for w in rep.witnesses if w.issue == "unfillable"]
    non_unique = [w for w in rep.witnesses if w.issue == "non_unique"]
    return {"inner_kan": all(w.horn_class != "inner" for w in unfillable),
            "dendroidal_kan": all(w.horn_class == "root" for w in unfillable),
            "fully_kan": not unfillable,
            "strict": all(len(w.tree.vertices) == 1 for w in non_unique),
            "fully_unique": not non_unique}


def test_inner_horns_fill_on_every_table_whose_composites_keep_profiles():
    """Inner horns fill exactly once without any operad law (see `kan`):
    composition rows sent at random to another operation of the same
    profile break the laws, and so other flags, but never give an inner
    witness.  Every report's flags are the ones its witnesses define."""
    rng = random.Random(32)
    smcs = [b_z2_smc(), one_object_abelian_group_smc(range(3), lambda a, b: (a + b) % 3),
            one_object_abelian_group_smc(range(3), max)]
    other_flag_false = 0
    for bound, arity in [(3, 2), (2, 3)]:
        for smc in smcs:
            table = table_operad_from(SMCOperad(smc), arity_needed(bound, arity))
            by_profile = {}
            for op, prof in table.profiles.items():
                by_profile.setdefault(prof, []).append(op)
            rows = sorted(table.composition, key=str)
            for _ in range(4):
                corrupt = {key: rng.choice(by_profile[table.profiles[table.composition[key]]])
                           for key in rng.sample(rows, 3)}
                rep = kan_report(_with_composition(table, corrupt), bound, arity)
                flags = _flags_from_witnesses(rep)
                assert {k: getattr(rep, k) for k in flags} == flags
                assert rep.inner_kan
                assert all(w.horn_class != "inner" for w in rep.witnesses)
                other_flag_false += not (rep.fully_kan and rep.strict)
    assert other_flag_false > 0


def test_kan_report_refuses_a_table_too_small_for_its_bounds():
    """At vertex bound b and arity cap a, faces compose up to arity
    b(a - 1) + 1; a table that stops below it is refused before any work
    (it used to stop partway on a missing composition row)."""
    table = table_operad_from(CORPUS["z2"](), 3)
    assert arity_needed(3, 3) == 7
    with pytest.raises(ValueError) as exc:
        kan_report(table, 3)
    assert str(exc.value) == ("max_vertices 3 with max_arity 3 needs a table of "
                              "arity 7; this one stops at arity 3")
    assert kan_report(table, 2, max_arity=2).fully_kan


def test_a_picard_groupoid_that_is_not_skeletal_has_a_fully_kan_nerve(
        contractible_picard_smc):
    """Picard groupoids have fully Kan nerves, also when two objects are
    isomorphic.  Fillers are unique on trees with >= 2 vertices; an outer
    horn of a corolla leaves a colour free, and both colours fill it."""
    rep = kan_report(SMCOperad(contractible_picard_smc), 2)
    assert rep.fully_kan and rep.strict and not rep.fully_unique
    assert rep.horns_checked == 1224
    assert {(w.issue, len(w.tree.vertices)) for w in rep.witnesses} == {("non_unique", 1)}


def _report_digest(rep) -> str:
    text = json.dumps(kan_report_to_json(rep), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


_GOLDENS = json.loads((Path(__file__).parent / "kan_goldens.json")
                      .read_text(encoding="utf-8"))


@pytest.mark.parametrize("max_vertices, max_arity, message", [
    (0, 3, "max_vertices must be >= 1, got 0"),
    (-1, 3, "max_vertices must be >= 1, got -1"),
    (2, 0, "max_arity must be >= 1, got 0"),
    (3, -2, "max_arity must be >= 1, got -2"),
])
def test_kan_report_rejects_bounds_that_check_no_horn(z2, max_vertices, max_arity, message):
    """A bound below 1 checks no horn, so every flag would be vacuously
    true; the report refuses it instead of giving a verdict."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        kan_report(z2, max_vertices, max_arity=max_arity)


@pytest.mark.parametrize("key", sorted(_GOLDENS))
def test_kan_report_matches_golden(key):
    """The report's JSON is byte-identical to the one recorded by
    `scripts/kan_goldens.py` before horn maps ran on compiled shapes, or,
    for z4 and z2xz2 at bound 3 and every report at bound 4, by the
    enumerator before cancellative operads skipped it."""
    name, bound = key.split("@")
    rep = kan_report(CORPUS[name](), int(bound), name=name)
    assert _report_digest(rep) == _GOLDENS[key]


def test_kan_report_of_a_monoid_that_does_not_cancel_matches_golden():
    """The multiplicative monoid {0, 1} as a one-object SMC does not cancel,
    so its report at bound 5 runs the enumerator on the 5-vertex shapes,
    among them those whose vertices `tree_shapes` lists out of output
    order; the digest was recorded before trees kept their vertices by
    output edge."""
    p = SMCOperad(one_object_abelian_group_smc([0, 1], lambda a, b: a * b))
    assert not p.cancellative()
    rep = kan_report(p, 5, max_arity=2)
    assert len(rep.witnesses) == 109
    assert _report_digest(rep) == \
        "a53e59424fe0be8937bd381e7bc7f00832cda3c169140ac3ad323dec5e0f9ce1"


def test_kan_reports_do_not_depend_on_trees_written_before():
    """In a fresh process, closing every 3-vertex shape written with
    reversed inputs first leaves the reports of z2 and mult01 at bound 3 as
    recorded: the faces of a tree are cached for the tree as written, not
    for an equal one written otherwise.  The reports run the enumerator on
    the 3-vertex shapes, through `Enumerated` (conftest)."""
    src = str(Path(dendro.__file__).resolve().parent.parent)
    code = ("import hashlib, json, sys\n"
            f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "from conftest import Enumerated\n"
            "from dendro.complexes import closure_cells\n"
            "from dendro.jsonio import kan_report_to_json\n"
            "from dendro.kan import kan_report, tree_shapes\n"
            "from dendro.operads import CORPUS\n"
            "from dendro.trees import Tree, Vertex\n"
            "for t in tree_shapes(3):\n"
            "    closure_cells(Tree([Vertex(v.inputs[::-1], v.output)\n"
            "                        for v in t.vertices], t.root))\n"
            "for name in ('z2', 'mult01'):\n"
            "    p = Enumerated(CORPUS[name]())\n"
            "    rep = kan_report_to_json(kan_report(p, 3, name=name))\n"
            "    text = json.dumps(rep, sort_keys=True, separators=(',', ':'))\n"
            "    print(hashlib.sha256(text.encode()).hexdigest())\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [_GOLDENS["z2@3"], _GOLDENS["mult01@3"]]


# -- the cancellative shortcut against the enumerator ------------------------

@pytest.mark.parametrize("name", ["z2", "bz2", "mult01", "z3", "sz2"])
def test_shortcut_equals_the_enumerator(name, enumerated, sz2_smc):
    """On a cancellative operad the trees with >= 3 vertices take the
    shortcut; through `Enumerated` they take the enumerator, and the report
    JSON is the same at bound 3."""
    p = SMCOperad(sz2_smc, "sZ/2") if name == "sz2" else CORPUS[name]()
    assert p.cancellative()
    assert _report_digest(kan_report(p, 3)) == _report_digest(kan_report(enumerated(p), 3))


@pytest.mark.parametrize("fixture,witnesses", [
    ("monoid_smc", {("leaf", "unfillable"): 204, ("root", "unfillable"): 108}),
    ("unfaithful_groupoid_smc", {("root", "unfillable"): 900}),
])
def test_operads_that_do_not_cancel_keep_their_three_vertex_witnesses(fixture, witnesses,
                                                                       request):
    """SMCs whose operads do not cancel take the enumerator on every tree
    and keep the witnesses on their 3-vertex trees at bound 3."""
    p = SMCOperad(request.getfixturevalue(fixture))
    assert not p.cancellative()
    rep = kan_report(p, 3)
    got = Counter((w.horn_class, w.issue) for w in rep.witnesses if len(w.tree.vertices) == 3)
    assert dict(got) == witnesses


def test_kan_report_json_independent_of_hash_seed():
    """Compiled shapes key subfaces by edge sets; the report must not follow
    the string hash order of the process."""
    src = str(Path(dendro.__file__).resolve().parent.parent)
    code = ("import sys\n"
            "from dendro.jsonio import dumps, kan_report_to_json\n"
            "from dendro.kan import kan_report\n"
            "from dendro.operads import CORPUS\n"
            "for name in ('bz2', 'mult01'):\n"
            "    rep = kan_report(CORPUS[name](), 2, name=name)\n"
            "    sys.stdout.write(dumps(kan_report_to_json(rep)))\n")
    outputs = set()
    for seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, check=True)
        outputs.add(proc.stdout)
    here = "".join(dumps(kan_report_to_json(kan_report(CORPUS[n](), 2, name=n)))
                   for n in ("bz2", "mult01"))
    assert outputs == {here}
