"""Operads and symmetric monoidal categories: axioms, corpus, fault detection."""

import dataclasses
import itertools
import json

import pytest

from dendro.cli import main
from dendro.jsonio import smc_to_json
from dendro.operads import (CORPUS, FiniteOperad, FiniteSMC, SMCOperad, TableOperad,
                            _permutation_iso, b_z2_smc, cyclic_group_smc, discrete_abelian_smc,
                            klein_four_smc, mult_01_monoid_smc,
                            one_object_abelian_group_smc, picard_check, table_operad_from,
                            validate_operad, validate_smc)

ALL_SMCS = {
    "z2": cyclic_group_smc(2),
    "z3": cyclic_group_smc(3),
    "z4": cyclic_group_smc(4),
    "z2xz2": klein_four_smc(),
    "bz2": b_z2_smc(),
    "mult01": mult_01_monoid_smc(),
}


@pytest.mark.parametrize("name", sorted(ALL_SMCS))
def test_corpus_smcs_satisfy_axioms(name):
    assert validate_smc(ALL_SMCS[name]) == []


@pytest.mark.parametrize("name,arity", [("z2", 3), ("z3", 2), ("bz2", 3),
                                        ("mult01", 3)])
def test_corpus_operads_satisfy_axioms(name, arity):
    assert validate_operad(CORPUS[name](), max_arity=arity) == []


def test_discrete_abelian_rejects_non_group():
    with pytest.raises(ValueError):
        discrete_abelian_smc([0, 1], lambda a, b: a * b)


@pytest.mark.parametrize("name,expected", [("z2", True), ("z3", True),
                                           ("z2xz2", True), ("bz2", True),
                                           ("mult01", False)])
def test_picard_check(name, expected):
    ok, reasons = picard_check(ALL_SMCS[name])
    assert ok is expected
    assert bool(reasons) is (not expected)


def test_discrete_group_operations_are_singletons(z3):
    """O(a_1..a_n; c) is a singleton iff a_1 + ... + a_n = c, arity <= 4."""
    for n in range(5):
        for inputs in itertools.product(z3.colours, repeat=n):
            for output in z3.colours:
                ops = z3.operations(inputs, output)
                want = sum(map(int, inputs)) % 3 == int(output)
                assert len(ops) == (1 if want else 0)


def test_bz2_all_profiles_have_two_operations(bz2):
    for n in range(4):
        ops = bz2.operations(("*",) * n, "*")
        assert len(ops) == 2


def test_smc_operad_compose_matches_group(z3):
    f = z3.operations(("1", "2"), "0")[0]
    g = z3.operations(("2", "2"), "1")[0]
    fg = z3.compose(f, 0, g)
    assert z3.op_profile(fg) == (("2", "2", "2"), "0")


def test_compose_rejects_mismatched_colour(z3):
    f = z3.operations(("1", "2"), "0")[0]
    g = z3.operations(("2",), "2")[0]
    with pytest.raises(ValueError):
        z3.compose(f, 0, g)    # input 0 of f has colour 1, g outputs 2


def test_permute_rejects_non_permutation(z2):
    f = z2.operations(("0", "1"), "1")[0]
    with pytest.raises(ValueError):
        z2.permute(f, (0, 0))


def test_permute_permutes_profile(z3):
    f = z3.operations(("1", "2"), "0")[0]
    g = z3.permute(f, (1, 0))
    assert z3.op_profile(g) == (("2", "1"), "0")


def test_identity_profiles(z2):
    for c in z2.colours:
        assert z2.op_profile(z2.identity(c)) == ((c,), c)


def test_table_operad_matches_source(z2):
    table = table_operad_from(z2, max_arity=2)
    for n in range(3):
        for inputs in itertools.product(z2.colours, repeat=n):
            for output in z2.colours:
                assert table.operations(inputs, output) == \
                    z2.operations(inputs, output)
    f = z2.operations(("1", "1"), "0")[0]
    g = z2.identity("1")
    assert table.compose(f, 0, g) == z2.compose(f, 0, g)
    assert table.permute(f, (1, 0)) == z2.permute(f, (1, 0))


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_table_operations_index_matches_the_profile_filter(name):
    """`operations` reads a per-instance index by profile; it lists exactly
    the operations of each profile, ordered by `str(op)`, as filtering the
    whole table did."""
    table = table_operad_from(CORPUS[name](), 3)
    by_str = sorted(table.profiles.items(), key=lambda kv: str(kv[0]))
    for n in range(4):
        for inputs in itertools.product(table.colours, repeat=n):
            for output in table.colours:
                assert table.operations(list(inputs), output) == \
                    tuple(op for op, prof in by_str if prof == (inputs, output))
    assert table.operations(("no such colour",), table.colours[0]) == ()


def test_table_operad_missing_entries_raise():
    t = TableOperad(colours=("c",), profiles={"f": (("c",), "c")},
                    identities_table={"c": "f"})
    with pytest.raises(KeyError):
        t.compose("f", 0, "f")
    with pytest.raises(KeyError):
        t.permute("f", (1, 0))
    assert t.permute("f", (0,)) == "f"   # identity permutation needs no table


@pytest.mark.parametrize("name,arity", [(n, a) for n in sorted(CORPUS) for a in (2, 3)]
                         + [("z2", 4), ("bz2", 4), ("mult01", 4)])
def test_validate_operad_checks_a_table_within_its_own_arity(name, arity):
    """A table holds composites up to its own arity only, so a law whose
    composites would go past it is not checked there."""
    assert validate_operad(table_operad_from(CORPUS[name](), arity), arity) == []


def test_validate_operad_detects_corrupted_composition(bz2):
    # tables deep enough that validating at arity 2 never misses an entry
    table = table_operad_from(bz2, max_arity=4)
    assert validate_operad(table, max_arity=2) == []
    key, good = next((k, v) for k, v in sorted(table.composition.items(), key=str)
                     if len(table.profiles[k[0]][0]) <= 2
                     and len(table.profiles[k[2]][0]) <= 2)
    other = next(op for op in table.profiles
                 if table.profiles[op] == table.profiles[good] and op != good)
    bad = dict(table.composition)
    bad[key] = other
    corrupt = TableOperad(colours=table.colours, profiles=table.profiles,
                          identities_table=table.identities_table,
                          composition=bad, symmetry=table.symmetry)
    violations = validate_operad(corrupt, max_arity=2)
    assert violations


@pytest.mark.parametrize("table,violation", [
    ("identities_table", "identity of colour 0 has wrong profile"),
    ("symmetry", "symmetry action breaks profile: sigma=(1, 0) on "
                 "(('0', '1'), '1', 'id_1')"),
], ids=["identity", "symmetry"])
def test_validate_operad_reports_a_row_of_the_wrong_profile(table, violation):
    """A wrong identity or symmetry row gives a violation, not a `KeyError`
    from a law that composes along it."""
    good = table_operad_from(CORPUS["z2"](), 2)
    f = next(op for op in good.profiles if good.profiles[op][0] == ("0", "1"))
    rows = {"identities_table": {**good.identities_table, "0": f},
            "symmetry": {**good.symmetry, (f, (1, 0)): f}}[table]
    assert validate_operad(dataclasses.replace(good, **{table: rows}), 2) == [violation]


def _without(rows: dict, key) -> dict:
    return {k: v for k, v in rows.items() if k != key}


@pytest.mark.parametrize("table,violation", [
    ("composition", "composition table has no listed operation for "
                    "(('0', '1'), '1', 'id_1') o_0 (('0',), '0', 'id_0')"),
    ("identity", "identity of colour 0 is not a listed operation"),
    ("symmetry", "symmetry table has no listed operation for sigma=(1, 0) on "
                 "(('0', '1'), '1', 'id_1')"),
    ("composite", "composition breaks profile: "
                  "(('0', '1'), '1', 'id_1') o_0 (('0',), '0', 'id_0')"),
], ids=["composition", "identity", "symmetry", "composite-profile"])
def test_validate_operad_reports_a_missing_row(table, violation):
    """A composition row deleted within the table's arity, an identity
    renamed to an unlisted operation, a deleted non-identity symmetry row
    and a composite of the wrong profile, which the nested associativity
    law would compose along, each give a violation (each raised
    `KeyError`)."""
    good = table_operad_from(CORPUS["z2"](), 2)
    f = next(op for op in good.profiles if good.profiles[op][0] == ("0", "1"))
    key = (f, 0, good.identity("0"))
    table, rows = {
        "composition": ("composition", _without(good.composition, key)),
        "identity": ("identities_table", {**good.identities_table, "0": "zz"}),
        "symmetry": ("symmetry", _without(good.symmetry, (f, (1, 0)))),
        "composite": ("composition", {**good.composition, key: good.identity("1")})}[table]
    assert validate_operad(dataclasses.replace(good, **{table: rows}), 2) == [violation]


def test_validate_operad_reports_a_symmetry_action_that_is_not_functorial(bz2):
    """A symmetry row sent to the other operation of its profile keeps
    every profile, so only the functoriality law, sigma * (tau * f) =
    (tau sigma) * f, sees it."""
    good = table_operad_from(bz2, 3)
    f = min((op for op in good.profiles if len(good.profiles[op][0]) == 3), key=str)
    key = (f, (1, 0, 2))
    (other,) = [op for op in good.operations(*good.profiles[f]) if op != good.symmetry[key]]
    bad = dataclasses.replace(good, symmetry={**good.symmetry, key: other})
    violations = validate_operad(bad, 3)
    assert "symmetry action not functorial: (1, 0, 2) after (0, 2, 1) on " \
           "(('*', '*', '*'), '*', 'g0')" in violations
    assert all(not v.startswith("symmetry action breaks profile") for v in violations)


class _MislistedIdentity(FiniteOperad):
    """One colour and one operation, the identity, which `operations` lists
    under its own profile and under the nullary one too."""
    colours = ("x",)

    def operations(self, inputs, output):
        return ("id",) if inputs in ((), ("x",)) else ()

    def op_profile(self, op):
        return (("x",), "x")

    def identity(self, colour):
        return "id"

    def compose(self, f, i, g):
        return "id"

    def permute(self, f, sigma):
        return f


def test_validate_operad_reports_an_operation_listed_under_a_wrong_profile():
    """A `TableOperad` lists each operation under its own profile, so only
    another `FiniteOperad` can list one under a wrong one; the check ends
    before the laws that compose along it."""
    assert validate_operad(_MislistedIdentity(), max_arity=2) == [
        "operation id listed under wrong profile ((), 'x')"]


def test_a_picard_groupoid_that_is_not_skeletal(contractible_picard_smc):
    """Two isomorphic objects: `picard_check` merges them into one
    isomorphism class, whose tensor inverse is itself."""
    assert validate_smc(contractible_picard_smc) == []
    assert picard_check(contractible_picard_smc) == (True, [])


def bubble_sort_iso(smc: FiniteSMC, objs, sigma) -> str:
    """The reference oracle for `FiniteSMC.permutation_iso`: bubble-sort
    the word sigma, composing one whiskered adjacent braiding per swap."""
    objs = list(objs)
    word = list(sigma)
    current = smc.identities[smc.tensor_objects([objs[i] for i in word])]
    changed = True
    while changed:
        changed = False
        for p in range(len(word) - 1):
            if word[p] > word[p + 1]:
                left = smc.identities[smc.tensor_objects([objs[i] for i in word[:p]])]
                right = smc.identities[smc.tensor_objects([objs[i] for i in word[p + 2:]])]
                swap = smc.braiding[(objs[word[p]], objs[word[p + 1]])]
                step = smc.tensor_mor[(smc.tensor_mor[(left, swap)], right)]
                current = smc.compose[(step, current)]
                word[p], word[p + 1] = word[p + 1], word[p]
                changed = True
    return current


def test_permutation_iso_strict_coherence(sz2_smc):
    """Every symmetry iso has the permuted profile and equals the bubble
    sort, on every object word up to arity 5 (4 with four objects), through
    one memo shared by all words, as `SMCOperad` shares it, and up to arity 4
    from a fresh memo; sZ/2 makes some of them non-identities."""
    non_identity = 0
    for name, smc in [*ALL_SMCS.items(), ("sz2", sz2_smc)]:
        assert validate_smc(smc) == []
        memo: dict = {}
        for n in range(5 if len(smc.objects) == 4 else 6):
            for objs in itertools.product(smc.objects, repeat=n):
                for sigma in itertools.permutations(range(n)):
                    want = bubble_sort_iso(smc, objs, sigma)
                    assert _permutation_iso(smc, memo, objs, sigma) == want, (name, objs, sigma)
                    if n <= 4:
                        assert smc.permutation_iso(objs, sigma) == want, (name, objs, sigma)
                    assert smc.profile[want] == (
                        smc.tensor_objects([objs[i] for i in sigma]),
                        smc.tensor_objects(objs))
                    non_identity += want not in smc.identities.values()
    assert non_identity == 1705


def test_permutation_iso_rejects_non_permutation():
    smc = cyclic_group_smc(3)
    for sigma in [(0, 0), (0,), (2, 0), (0, 1, 2)]:
        with pytest.raises(ValueError, match="not a permutation"):
            smc.permutation_iso(("1", "2"), sigma)


def test_validate_smc_checks_the_hexagon(hexagon_failing_smc):
    """Braiding with the unit 0 as the non-identity automorphism of 1 keeps
    the involution and naturality but breaks the hexagon."""
    assert validate_smc(hexagon_failing_smc) == [f"hexagon fails at (1,{b},{d})"
                                                 for b in "01" for d in "01"]


def test_kan_check_refuses_an_smc_that_fails_the_hexagon(tmp_path, capsys,
                                                         hexagon_failing_smc):
    """An SMC document is checked against the SMC laws when it loads: no
    Kan verdict for one that fails them, exit 2 and one stderr line."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(smc_to_json(hexagon_failing_smc)))
    assert main(["kan", "check", "--operad", str(path), "--bound", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: $: hexagon fails at (1,0,0)\n"


def _without_row(smc, table, key):
    """The SMC with the row `key` of one of its tables removed."""
    rows = getattr(smc, table)
    return dataclasses.replace(smc, **{table: {k: v for k, v in rows.items() if k != key}})


@pytest.mark.parametrize("smc,table,key,violation", [
    ("bz2", "identities", "*", "identity of '*' missing or has wrong profile"),
    ("bz2", "compose", ("g0", "g1"), "compose missing at (g0,g1)"),
    ("z2", "tensor_obj", ("1", "1"), "tensor_obj missing at (1,1)"),
    ("bz2", "tensor_mor", ("g1", "g0"), "tensor_mor missing or wrong profile at (g1,g0)"),
    ("bz2", "braiding", ("*", "*"), "braiding missing or wrong profile at (*,*)"),
    ("z2", "braiding", ("1", "0"), "braiding missing or wrong profile at (1,0)"),
])
def test_validate_smc_reports_a_missing_row(smc, table, key, violation):
    """A missing row is a violation, never a `KeyError`: the check stops
    after the table that lacks it, and checks an involution only where both
    braidings are there."""
    assert validate_smc(_without_row(ALL_SMCS[smc], table, key)) == [violation]


@pytest.mark.parametrize("smc,table,key,value,violation", [
    ("bz2", "compose", ("g1", "g1"), "zz", "compose(g1,g1)=zz names an unknown morphism"),
    ("bz2", "compose", ("zz", "g0"), "g0", "compose(zz,g0)=g0 names an unknown morphism"),
    ("bz2", "tensor_mor", ("g1", "g0"), "zz", "tensor_mor missing or wrong profile at (g1,g0)"),
    ("bz2", "braiding", ("*", "*"), "zz", "braiding missing or wrong profile at (*,*)"),
    ("bz2", "identities", "*", "zz", "identity of '*' missing or has wrong profile"),
    ("z2", "tensor_obj", ("1", "1"), "7", "tensor_obj(1,1)=7 names an unknown object"),
])
def test_validate_smc_reports_an_unknown_name(smc, table, key, value, violation):
    """A row naming a morphism or object the SMC lacks is a violation, never
    a `KeyError`, and its operad does not cancel."""
    smc = ALL_SMCS[smc]
    smc = dataclasses.replace(smc, **{table: {**getattr(smc, table), key: value}})
    assert validate_smc(smc) == [violation]
    assert not SMCOperad(smc).cancellative()


BZ3 = one_object_abelian_group_smc(range(3), lambda a, b: (a + b) % 3)


@pytest.mark.parametrize("smc,table,key,value,violation", [
    (b_z2_smc(), "unit", None, "x", "unit 'x' is not an object"),
    (cyclic_group_smc(2), "compose", ("id_0", "id_1"), "id_0",
     "compose(id_0,id_1) defined but profiles do not match"),
    (cyclic_group_smc(2), "compose", ("id_0", "id_0"), "id_1",
     "compose(id_0,id_0)=id_1 has wrong profile"),
    (b_z2_smc(), "compose", ("g1", "g0"), "g0", "right unit law fails at g1"),
    (b_z2_smc(), "compose", ("g0", "g1"), "g0", "left unit law fails at g1"),
    (BZ3, "compose", ("g1", "g1"), "g0", "associativity fails at (g2,g1,g1)"),
    (cyclic_group_smc(2), "tensor_obj", ("0", "1"), "0",
     "tensor unit law fails on object '1'"),
    (cyclic_group_smc(3), "tensor_obj", ("1", "1"), "1",
     "tensor associativity fails on objects (1,1,2)"),
    (b_z2_smc(), "tensor_mor", ("g1", "g1"), "g1",
     "tensor interchange fails at (g1,g0,g0,g1)"),
    (BZ3, "braiding", ("*", "*"), "g1", "braiding is not an involution at (*,*)"),
], ids=["unit", "compose-profiles", "compose-result", "right-unit", "left-unit",
        "associativity", "tensor-unit", "tensor-associativity", "interchange",
        "involution"])
def test_validate_smc_reports_the_first_broken_law(smc, table, key, value, violation):
    """One corrupted row per law: the law it breaks is the first violation."""
    rows = value if table == "unit" else {**getattr(smc, table), key: value}
    assert validate_smc(dataclasses.replace(smc, **{table: rows}))[0] == violation


def test_picard_check_names_a_morphism_that_is_not_invertible(monoid_smc):
    assert picard_check(monoid_smc) == (False, ["morphism g0 is not invertible"])


@pytest.mark.parametrize("name", sorted(CORPUS) + ["sz2"])
def test_corpus_and_sign_groupoid_are_cancellative(name, sz2_smc):
    p = SMCOperad(sz2_smc) if name == "sz2" else CORPUS[name]()
    assert p.cancellative()


@pytest.mark.parametrize("fixture,valid", [("monoid_smc", True),
                                           ("unfaithful_groupoid_smc", True),
                                           ("hexagon_failing_smc", False)])
def test_smcs_that_do_not_cancel(fixture, valid, request):
    """The monoid ({0, 1}, x) on one object and the groupoid whose tensor
    is not faithful are SMCs whose operads do not cancel; the sZ/2 that
    fails the hexagon is no SMC."""
    smc = request.getfixturevalue(fixture)
    assert (validate_smc(smc) == []) == valid
    assert not SMCOperad(smc).cancellative()


def test_tables_are_not_known_to_cancel(z2):
    assert not table_operad_from(z2, 2).cancellative()


def test_homs_lookup():
    smc = b_z2_smc()
    assert smc.homs("*", "*") == ("g0", "g1")
    assert smc.tensor_objects([]) == smc.unit


@pytest.mark.parametrize("name", sorted(ALL_SMCS))
def test_homs_index_matches_the_profile_scan(name):
    """`homs` reads an index built on the first call; it lists each hom set
    as scanning and sorting the whole profile table did."""
    smc = ALL_SMCS[name]
    for a, b in itertools.product(smc.objects, repeat=2):
        assert smc.homs(a, b) == tuple(sorted(m for m, (d, c) in smc.profile.items()
                                              if d == a and c == b)), (a, b)
    assert smc.homs("no such object", smc.unit) == ()


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_smc_operations_from_is_the_default_lookup(name):
    """The one cached lookup of an SMC operad, and `operations`, which
    reads it, list the morphisms of each hom set out of the tensor of the
    inputs, output colours in `colours` order, on every input tuple of
    arity <= 3."""
    p = CORPUS[name]()
    smc = p.smc
    for n in range(4):
        for inputs in itertools.product(p.colours, repeat=n):
            dom = smc.tensor_objects(inputs)
            by_colour = {c: tuple((inputs, c, m) for m in smc.homs(dom, c))
                         for c in p.colours}
            assert p.operations_from(inputs) == tuple(
                (c, ops) for c, ops in by_colour.items() if ops), inputs
            for c, ops in by_colour.items():
                assert p.operations(inputs, c) == ops == p.operations(list(inputs), c)
    assert p.operations((), "no such colour") == ()


def test_smc_operad_is_freed_without_the_cyclic_collector():
    """The operad's caches hold functions of its SMC, not its own bound
    methods, so dropping the last reference frees it at once."""
    import gc
    import weakref

    from dendro.kan import kan_report

    enabled = gc.isenabled()
    gc.disable()
    try:
        op = CORPUS["z2"]()
        ref = weakref.ref(op)
        kan_report(op, 2)
        del op
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
