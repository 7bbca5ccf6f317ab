"""Anodyne classes, certificate verification, building and search."""

import dataclasses
import random

import pytest

from dendro.anodyne import (AnodyneClass, BuildError, Certificate, HornStep,
                            NestedStep, SearchResult, _carried, _uncarried,
                            build_filtration, certificate_class, class_phrase,
                            generator_class, parse_class, search_certificate,
                            verify_certificate)
from dendro.complexes import representable
from dendro.kan import tree_shapes
from dendro.lemmas import (binary_tensor_certificate, codim_base_cells,
                           extended_corolla_split_certificate,
                           root_horn_certificate)
from dendro.shuffles import c2_shuffle
from dendro.trees import (ROOT_FACE, Tree, TreeError, Vertex, c2, corolla,
                          extended_corolla, faces, graft, has_root_horn, linear)


@pytest.fixture
def retract_tree():
    """Binary root whose inner branch carries a binary vertex: the root horn
    is not a generator, so its certificate goes through a retract."""
    return graft(c2(), "a", corolla(2, leaves=("p", "q"), root="a"))


# -- classes ----------------------------------------------------------------

def test_class_order():
    assert (AnodyneClass.INNER < AnodyneClass.LEFT
            < AnodyneClass.BINARY_EXTENDED_LEFT
            < AnodyneClass.EXTENDED_LEFT < AnodyneClass.OUTER)


def test_class_phrase_and_parse_roundtrip():
    for cls in AnodyneClass:
        assert parse_class(class_phrase(cls)) is cls
    assert parse_class("Binary-Extended-Left") is AnodyneClass.BINARY_EXTENDED_LEFT
    with pytest.raises(ValueError):
        parse_class("medium")


def test_generator_class_inner():
    t0 = c2_shuffle(1, 0)
    assert generator_class(t0, ("inner", "c_0")) is AnodyneClass.INNER


def test_generator_class_leaf():
    t0 = c2_shuffle(1, 0)
    assert generator_class(t0, ("top", "c_0")) is AnodyneClass.LEFT
    assert generator_class(c2(), ("colour", "c")) is AnodyneClass.LEFT


def test_generator_class_unknown_face():
    with pytest.raises(TreeError):
        generator_class(c2_shuffle(1, 0), ("inner", "nope"))


def test_generator_class_root_horns(retract_tree):
    assert generator_class(c2(), ("colour", "b")) is \
        AnodyneClass.BINARY_EXTENDED_LEFT       # C_2 = EC_{0,1}
    ec11 = extended_corolla(1, 1)
    assert generator_class(ec11, ("root", "c")) is \
        AnodyneClass.BINARY_EXTENDED_LEFT
    ec12 = extended_corolla(1, 2)
    assert generator_class(ec12, ("root", "c")) is AnodyneClass.EXTENDED_LEFT
    assert generator_class(retract_tree, ("root", "c")) is AnodyneClass.OUTER


# -- hand filtrations and verification --------------------------------------

def test_hand_certificate_for_c2_root_horn():
    amb = representable(c2())
    cert = build_filtration(amb, [{"a"}, {"c"}], [c2().edges])
    rep = verify_certificate(cert)
    assert rep.valid
    assert rep.step_count == 1
    assert rep.overall_class is AnodyneClass.BINARY_EXTENDED_LEFT
    assert certificate_class(cert) is rep.overall_class
    assert "valid: 1 steps" in rep.summary()


def test_build_filtration_rejects_present_cell():
    amb = representable(c2())
    with pytest.raises(BuildError):
        build_filtration(amb, [c2().edges], [c2().edges])


def test_short_cell_order_does_not_verify():
    """A built filtration targets its whole ambient, so an order that stops
    short of it does not certify the subcomplex it reached."""
    full = extended_corolla_split_certificate(1, 1)
    cert = build_filtration(full.ambient(), list(full.start),
                            [step.cell for step in full.steps[:-1]])
    assert cert.target == full.target
    rep = verify_certificate(cert)
    assert not rep.valid
    assert rep.violations[0].message.startswith("final subcomplex differs from target")


def test_build_filtration_rejects_non_horn():
    amb = representable(c2())
    with pytest.raises(BuildError):
        build_filtration(amb, [{"a"}], [c2().edges])   # two faces missing


def test_verify_detects_wrong_omitted_key():
    amb = representable(c2())
    good = build_filtration(amb, [{"a"}, {"c"}], [c2().edges])
    bad = dataclasses.replace(good, steps=(HornStep(c2().edges, ("colour", "a")),))
    rep = verify_certificate(bad)
    assert not rep.valid
    assert any("horn pushout" in str(v) for v in rep.violations)
    assert rep.violations[0].step_index == (0,)


def test_verify_detects_missing_step():
    cert = extended_corolla_split_certificate(1, 1)
    bad = dataclasses.replace(cert, steps=cert.steps[:-1])
    rep = verify_certificate(bad)
    assert not rep.valid
    assert any("final subcomplex differs" in str(v) for v in rep.violations)


def test_verify_detects_foreign_cell():
    amb = representable(c2())
    good = build_filtration(amb, [{"a"}, {"c"}], [c2().edges])
    bad = dataclasses.replace(good, steps=(HornStep(frozenset({"zz"}),
                                                    ("colour", "b")),))
    rep = verify_certificate(bad)
    assert not rep.valid
    assert any("not an ambient cell" in str(v) for v in rep.violations)


def test_verify_rejects_unknown_kind():
    amb = representable(c2())
    good = build_filtration(amb, [{"a"}, {"c"}], [c2().edges])
    rep = verify_certificate(dataclasses.replace(good, kind="magic"))
    assert not rep.valid


def test_verify_rejects_malformed_start():
    cert = Certificate(ambient_generators=(c2(),),
                       start=(frozenset({"zz"}),), target=(c2().edges,))
    rep = verify_certificate(cert)
    assert not rep.valid
    assert "malformed" in str(rep.violations[0])


def test_verify_reports_vertex_without_inputs_as_malformed():
    stump = Tree([Vertex(("a", "b"), "r"), Vertex((), "b")], "r")
    cert = Certificate(ambient_generators=(stump,),
                       start=(frozenset({"a"}),), target=(stump.edges,))
    rep = verify_certificate(cert)
    assert [str(v) for v in rep.violations] == [
        "step certificate: malformed certificate: vertex 'b' has no inputs; "
        "complexes of trees with such vertices are not supported"]


def test_replace_finds_its_own_class_and_ambient():
    """A node keeps the ambient its builder handed over and the class it
    found; `dataclasses.replace` makes a node that finds its own."""
    amb = representable(c2())
    cert = build_filtration(amb, [{"a"}, {"c"}], [c2().edges])
    assert cert.ambient() is amb
    assert certificate_class(cert) is AnodyneClass.BINARY_EXTENDED_LEFT
    leaf = dataclasses.replace(cert, steps=(HornStep(c2().edges, ("colour", "c")),))
    assert certificate_class(leaf) is AnodyneClass.LEFT
    assert certificate_class(cert) is AnodyneClass.BINARY_EXTENDED_LEFT
    other = c2("x", "y", "z")
    moved = dataclasses.replace(cert, ambient_generators=(other,))
    assert moved.ambient() is not amb
    assert moved.ambient().generators == (other,)
    assert moved.ambient() is moved.ambient()
    assert dataclasses.replace(cert) == cert
    assert repr(dataclasses.replace(cert)) == repr(cert)


def test_verify_detects_bad_nested_ambient():
    amb = representable(c2())
    inner = build_filtration(representable(corolla(1, leaves=("x",), root="y")),
                             [{"x"}], [{"x", "y"}])
    bad = Certificate(ambient_generators=(c2(),),
                      start=(frozenset({"a"}), frozenset({"c"})),
                      target=(c2().edges,),
                      steps=(NestedStep(c2().edges, inner),))
    rep = verify_certificate(bad)
    assert not rep.valid
    assert any("nested" in str(v) for v in rep.violations)


def test_nested_ambient_must_be_the_cells_own_tree():
    """The re-rooted corolla (a, c) -> b has the cells of C2's closure, edge
    set for edge set, but it is another tree: omitting colour b is a leaf
    horn there and a root horn in C2, so a nested certificate over it is
    rejected before it is replayed."""
    rerooted = corolla(2, leaves=("a", "c"), root="b")
    forged = build_filtration(representable(rerooted), [{"a"}, {"c"}],
                              [rerooted.edges])
    assert verify_certificate(forged).overall_class is AnodyneClass.LEFT
    cell = c2().edges
    bad = Certificate(ambient_generators=(c2(),),
                      start=(frozenset({"a"}), frozenset({"c"})),
                      target=(cell,), steps=(NestedStep(cell, forged),))
    rep = verify_certificate(bad)
    assert not rep.valid
    assert rep.classes_used == []
    assert str(rep.violations[0]) == \
        "step 0: nested ambient is not the closure of ['a', 'b', 'c']"
    honest = root_horn_certificate(c2(), ("colour", "b"))
    assert verify_certificate(honest).summary() == \
        "valid: 1 steps, class BINARY_EXTENDED_LEFT"


def test_nested_certificate_sees_only_the_closure_of_its_cell(two_vertex_tree):
    """A nested certificate is checked in its parent's complex, on the
    closure of its cell: cells of the parent outside it are reported as
    they are for a certificate over that closure alone."""
    amb = representable(two_vertex_tree)
    corolla_cell = frozenset({"a", "b", "c"})
    inner = build_filtration(representable(amb.tree_of(corolla_cell)),
                             [{"a"}, {"c"}], [corolla_cell])
    outer = build_filtration(amb, [{"x", "a"}, {"c"}], [corolla_cell, amb.order[-1]],
                             nested={corolla_cell: inner})
    assert verify_certificate(outer).valid
    foreign_start = dataclasses.replace(inner, start=(frozenset({"x"}), frozenset({"c"})))
    foreign_step = dataclasses.replace(
        inner, steps=(HornStep(frozenset({"x", "a"}), ("colour", "x")),))
    for sub, text in [
            (foreign_start, "step 0: malformed certificate: "
                            "\"not a cell of the complex: ['x']\""),
            (foreign_step, "step 0.0: not an ambient cell: ['a', 'x']")]:
        bad = dataclasses.replace(outer, steps=(NestedStep(corolla_cell, sub),)
                                  + outer.steps[1:])
        assert str(verify_certificate(bad).violations[0]) == text
        alone = verify_certificate(dataclasses.replace(sub, ambient_generators=(
            amb.tree_of(corolla_cell),)))
        assert str(alone.violations[0]).split(": ", 1)[1] == text.split(": ", 1)[1]


# -- retract certificates ---------------------------------------------------

def test_retract_certificate_verifies(retract_tree):
    cert = root_horn_certificate(retract_tree)
    assert cert.kind == "retract"
    rep = verify_certificate(cert)
    assert rep.valid
    assert rep.overall_class <= AnodyneClass.EXTENDED_LEFT
    assert certificate_class(cert) == rep.overall_class


def test_retract_corrupted_retraction_detected(retract_tree):
    cert = root_horn_certificate(retract_tree)
    r = dict(cert.retraction)
    a_prime = next(e for e in r if e not in retract_tree.edges)
    r[a_prime] = retract_tree.root          # no longer r o s = id compatible
    rep = verify_certificate(dataclasses.replace(
        cert, retraction=tuple(sorted(r.items()))))
    assert not rep.valid


def test_retract_corrupted_section_detected(retract_tree):
    cert = root_horn_certificate(retract_tree)
    s = dict(cert.section)
    del s[retract_tree.root]
    rep = verify_certificate(dataclasses.replace(
        cert, section=tuple(sorted(s.items()))))
    assert not rep.valid
    assert any("section" in str(v) for v in rep.violations)


def test_retract_without_sub_invalid(retract_tree):
    cert = root_horn_certificate(retract_tree)
    rep = verify_certificate(dataclasses.replace(cert, sub=None))
    assert not rep.valid


# -- pinned violation texts -------------------------------------------------

def _injected_faults(retract_tree):
    """name -> a certificate with one injected fault."""
    good = build_filtration(representable(c2()), [{"a"}, {"c"}], [c2().edges])
    cell = c2().edges
    split = extended_corolla_split_certificate(1, 1)
    retract = root_horn_certificate(retract_tree)
    unary = build_filtration(representable(corolla(1, leaves=("x",), root="y")),
                             [{"x"}], [{"x", "y"}])
    c2_horn = root_horn_certificate(c2(), ("colour", "b"))
    r = dict(retract.retraction)
    a_prime = next(e for e in r if e not in retract_tree.edges)
    r[a_prime] = retract_tree.root
    s = dict(retract.section)
    del s[retract_tree.root]
    return {
        "wrong-omitted-key": dataclasses.replace(
            good, steps=(HornStep(cell, ("colour", "a")),)),
        "missing-step": dataclasses.replace(split, steps=split.steps[:-1]),
        "foreign-cell": dataclasses.replace(
            good, steps=(HornStep(frozenset({"zz"}), ("colour", "b")),)),
        "present-cell": dataclasses.replace(good, steps=good.steps * 2),
        "unknown-face": dataclasses.replace(
            good, steps=(HornStep(cell, ("inner", "zz")),)),
        "eta-step": dataclasses.replace(
            good, start=(frozenset({"c"}),),
            steps=(HornStep(frozenset({"a"}), ("colour", "a")),)),
        "unknown-step-type": dataclasses.replace(good, steps=("bogus",)),
        "unknown-kind": dataclasses.replace(good, kind="magic"),
        "malformed-start": Certificate(ambient_generators=(c2(),),
                                       start=(frozenset({"zz"}),),
                                       target=(cell,)),
        "bad-nested-ambient": Certificate(
            ambient_generators=(c2(),), start=(frozenset({"a"}), frozenset({"c"})),
            target=(cell,), steps=(NestedStep(cell, unary),)),
        "nested-wrong-start": Certificate(
            ambient_generators=(c2(),),
            start=(frozenset({"a"}), frozenset({"b"}), frozenset({"c"})),
            target=(cell,), steps=(NestedStep(cell, c2_horn),)),
        "nested-not-full": Certificate(
            ambient_generators=(c2(),), start=(frozenset({"a"}), frozenset({"c"})),
            target=(cell,),
            steps=(NestedStep(cell, dataclasses.replace(
                c2_horn, steps=(), target=c2_horn.start)),)),
        "retract-corrupted-retraction": dataclasses.replace(
            retract, retraction=tuple(sorted(r.items()))),
        "retract-corrupted-section": dataclasses.replace(
            retract, section=tuple(sorted(s.items()))),
        "retract-without-sub": dataclasses.replace(retract, sub=None),
    }


def test_violation_texts_pinned(retract_tree, check_pinned):
    faults = _injected_faults(retract_tree)
    assert len(faults) == 15
    for name, bad in faults.items():
        rep = verify_certificate(bad)
        assert not rep.valid, name
        check_pinned(name, rep)


def _retract_faults(retract_tree):
    """name -> the retract certificate with one fault in its edge maps or
    its sub-certificate."""
    cert = root_horn_certificate(retract_tree)
    r, s = dict(cert.retraction), dict(cert.section)
    a_prime = next(e for e in r if e not in retract_tree.edges)
    # the inner edge a and the root leaf b swapped in both maps: r o s is
    # the identity and the full tree keeps its edge set, but not its shape
    swap = {"a": "b", "b": "a"}
    return {
        "retract-retraction-outside-ambient": dataclasses.replace(
            cert, retraction=tuple(sorted({**r, a_prime: "zz"}.items()))),
        "retract-not-identity": dataclasses.replace(
            cert, section=tuple(sorted({**s, "p": "q", "q": "p"}.items()))),
        "retract-swapped-edges": dataclasses.replace(
            cert, section=tuple(sorted({**s, **swap}.items())),
            retraction=tuple(sorted({**r, **swap}.items()))),
        "retract-invalid-sub": dataclasses.replace(
            cert, sub=dataclasses.replace(cert.sub, steps=cert.sub.steps[:-1])),
    }


def test_retract_violation_texts_pinned(retract_tree, check_pinned):
    for name, bad in _retract_faults(retract_tree).items():
        check_pinned(name, verify_certificate(bad))


def _retract_nodes(cert, out: dict) -> dict:
    """The retract nodes of a certificate, keyed by their ambient tree's
    written form (a node is fixed by it)."""
    if cert.kind == "retract":
        g = cert.ambient_generators[0]
        out.setdefault((g.root, g.vertices), cert)
        _retract_nodes(cert.sub, out)
    for step in cert.steps:
        if isinstance(step, NestedStep):
            _retract_nodes(step.certificate, out)
    return out


def _mutants(rng, edge_map: dict, tree: Tree, codomain: list, count: int):
    """The map itself, then `count` maps with one seeded change each: an
    edge sent elsewhere in the codomain, two edges' images swapped, or the
    images of two inputs of one vertex swapped."""
    domain = sorted(edge_map)
    siblings = [v.inputs for v in tree.vertices if len(v.inputs) >= 2]
    yield dict(edge_map)
    for _ in range(count):
        m = dict(edge_map)
        kind = rng.randrange(3)
        if kind == 0:
            m[rng.choice(domain)] = rng.choice(codomain)
        else:
            a, b = rng.sample(rng.choice(siblings) if kind == 2 else domain, 2)
            m[a], m[b] = m[b], m[a]
        yield m


def test_generator_retract_check_agrees_with_the_cell_walk():
    """On every retract node of the root horns of `tree_shapes(4)`, with
    its section and retraction and seeded mutations of them, checking the
    maximal cells of the start and target passes exactly when the per-cell
    walk `_uncarried` finds no cell."""
    nodes: dict = {}
    for tree in tree_shapes(4):
        if len(tree.vertices) >= 2 and has_root_horn(tree):
            _retract_nodes(root_horn_certificate(tree), nodes)
    rng = random.Random(29)
    outcomes = {True: 0, False: 0}
    for node in nodes.values():
        amb, sub_amb = node.ambient(), node.sub.ambient()
        start, target = amb.closure_mask(node.start), amb.closure_mask(node.target)
        sub_start = sub_amb.closure_mask(node.sub.start)
        sub_target = sub_amb.closure_mask(node.sub.target)
        for src, dst, edge_map, pairs in (
                (amb, sub_amb, node.section, ((target, sub_target), (start, sub_start))),
                (sub_amb, amb, node.retraction, ((sub_target, target), (sub_start, start)))):
            codomain = sorted(dst.order[-1])
            for m in _mutants(rng, dict(edge_map), src.cell_trees[-1], codomain, 10):
                carried = all(_carried(src, dst, m, mask, image) for mask, image in pairs)
                assert carried == (not _uncarried(src, dst, m, pairs)), (node, m)
                outcomes[carried] += 1
    assert len(nodes) == 678
    assert min(outcomes.values()) > 4000, outcomes


# -- order robustness -------------------------------------------------------

def permuted_replay(cert: Certificate, seed: int):
    """Shuffle each batch of pairwise-independent consecutive steps and
    replay; independence means the closures meet only inside the subcomplex
    preceding the batch."""
    amb = cert.ambient()
    rng = random.Random(seed)
    current = set(amb.closure_subcomplex(cert.start).cells)
    order = []
    steps = list(cert.steps)
    i = 0
    while i < len(steps):
        batch = [steps[i]]
        batch_closure = set(amb.closure(steps[i].cell))
        j = i + 1
        while j < len(steps) and isinstance(steps[j], HornStep):
            cl = set(amb.closure(steps[j].cell))
            if cl & batch_closure <= current:
                batch.append(steps[j])
                batch_closure |= cl
                j += 1
            else:
                break
        rng.shuffle(batch)
        order.extend(s.cell for s in batch)
        current |= batch_closure
        i = j
    redone = build_filtration(amb, list(cert.start), order)
    return verify_certificate(redone)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lemma_certificates_are_order_robust(seed):
    for cert in (binary_tensor_certificate(1),
                 extended_corolla_split_certificate(1, 1)):
        rep = permuted_replay(cert, seed)
        assert rep.valid


# -- search -----------------------------------------------------------------

def test_search_empty_when_start_is_target():
    amb = representable(c2())
    res = search_certificate(amb, amb.full(), amb.full())
    assert res.certificate is not None
    assert res.certificate.steps == ()
    assert not res.exhausted_budget


def test_search_finds_inner_horn_filler(two_vertex_tree):
    amb = representable(two_vertex_tree)
    start = amb.horn_subcomplex(two_vertex_tree.edges, ("inner", "a"))
    res = search_certificate(amb, start, amb.full(),
                             allowed=AnodyneClass.INNER)
    assert res.certificate is not None
    rep = verify_certificate(res.certificate)
    assert rep.valid
    assert rep.overall_class is AnodyneClass.INNER


def test_search_is_deterministic(two_vertex_tree):
    amb = representable(two_vertex_tree)
    start = amb.horn_subcomplex(two_vertex_tree.edges, ("inner", "a"))
    r1 = search_certificate(amb, start, amb.full())
    r2 = search_certificate(amb, start, amb.full())
    assert r1.certificate == r2.certificate


def test_search_monotone_in_class(two_vertex_tree):
    amb = representable(two_vertex_tree)
    start = amb.horn_subcomplex(two_vertex_tree.edges, ("inner", "a"))
    for allowed in AnodyneClass:
        res = search_certificate(amb, start, amb.full(), allowed=allowed)
        assert res.certificate is not None


def test_search_definitively_fails_below_class():
    amb = representable(c2())
    start = amb.horn_subcomplex(c2().edges, ("colour", "b"))
    res = search_certificate(amb, start, amb.full(),
                             allowed=AnodyneClass.INNER)
    assert res.certificate is None
    assert not res.exhausted_budget


@pytest.mark.parametrize("ambient, other, omitted", [
    (linear(3), c2(), ("colour", "b")),     # read in the wrong numbering: a false "none"
    (c2(), linear(2), ("inner", "1")),      # masks past the ambient: an IndexError
])
def test_search_rejects_subcomplexes_of_another_ambient(ambient, other, omitted):
    amb, sub = representable(ambient), representable(other)
    start = sub.horn_subcomplex(other.edges, omitted)
    for args in ((start, sub.full()), (amb.full(), sub.full()), (start, amb.full())):
        with pytest.raises(ValueError, match="^subcomplexes live in different ambient "
                                             "complexes$"):
            search_certificate(amb, *args, allowed=AnodyneClass.OUTER)


def test_search_rejects_a_start_outside_its_target():
    """No filtration shrinks a subcomplex: a start with cells the target
    lacks is rejected before the search, not answered with an empty
    certificate that the verifier refuses."""
    amb = representable(c2())
    horn_sub = amb.horn_subcomplex(c2().edges, ("colour", "a"))
    with pytest.raises(ValueError, match="^the start subcomplex is not inside the target$"):
        search_certificate(amb, amb.full(), horn_sub)
    assert search_certificate(amb, horn_sub, horn_sub).certificate.steps == ()


def test_search_budget_exhaustion(two_vertex_tree):
    amb = representable(two_vertex_tree)
    start = amb.horn_subcomplex(two_vertex_tree.edges, ("inner", "a"))
    res = search_certificate(amb, start, amb.full(), budget=0)
    assert res.certificate is None
    assert res.exhausted_budget


def test_search_takes_more_steps_than_the_recursion_limit():
    """From the spine of a 10-vertex linear tree the search takes 1,013
    steps through 2,047 cells, deeper than the recursion limit."""
    amb = representable(linear(10))
    spine = amb.closure_subcomplex([{str(i), str(i + 1)} for i in range(10)])
    res = search_certificate(amb, spine, amb.full(), budget=10**7)
    assert len(res.certificate.steps) == 1013 and not res.exhausted_budget
    assert verify_certificate(res.certificate).valid


# -- the attachability memo against the unmemoised search -------------------

def unmemoised_search(amb, start, target, allowed=AnodyneClass.INNER,
                      budget=100_000) -> SearchResult:
    """Reference oracle: `search_certificate` asking `Complex.attachment`
    about every candidate cell at every node, with nothing remembered."""
    goal, start_mask = target.mask, start.mask
    todo_all = amb.indices(goal & ~start_mask)
    examined = 0
    out_of_budget = False

    def moves(current):
        nonlocal examined, out_of_budget
        found = []
        for i in todo_all:
            if current >> i & 1:
                continue
            if examined >= budget:
                out_of_budget = True
                break
            examined += 1
            key = amb.attachment(i, current)
            if key is not None and generator_class(amb.cell_trees[i], key) <= allowed:
                found.append(HornStep(amb.order[i], key))
        return found

    def dfs(current, steps):
        if current & goal == goal:
            return True
        for step in moves(current):
            steps.append(step)
            if dfs(current | amb.masks[amb.index[step.cell]], steps):
                return True
            steps.pop()
            if out_of_budget:
                break
        return False

    steps = []
    if not dfs(start_mask, steps):
        return SearchResult(None, examined, out_of_budget)
    cert = Certificate(ambient_generators=amb.generators,
                       start=tuple(sorted(start.cells, key=sorted)),
                       target=tuple(sorted(target.cells, key=sorted)),
                       kind="filtration", steps=tuple(steps))
    return SearchResult(cert, examined, out_of_budget)


T5 = Tree((Vertex(("u", "v"), "p"), Vertex(("p",), "q"), Vertex(("q",), "r"),
           Vertex(("w",), "x"), Vertex(("r", "x"), "c")), "c")
SIX = Tree((Vertex(("e1", "e2"), "e0"), Vertex(("e3",), "e1"), Vertex(("e4",), "e2"),
            Vertex(("e5", "e6"), "e4"), Vertex(("e7",), "e6"),
            Vertex(("e8", "e9"), "e7")), "e0")


def _t5_inner_horn():
    amb = representable(T5)
    return amb, amb.horn_subcomplex(T5.edges, ("inner", "r"))


def _six_vertex_codim():
    amb = representable(SIX)
    return amb, amb.closure_subcomplex(codim_base_cells(SIX, SIX.root))


# a unary vertex under a binary one: searches from some faces must backtrack
BACKTRACK = Tree((Vertex(("e1",), "e0"), Vertex(("e2", "e3"), "e1")), "e0")


def _backtrack_once():
    """The search backtracks once, then finds a 3-step certificate (14
    candidates examined)."""
    amb = representable(BACKTRACK)
    return amb, amb.closure_subcomplex([{"e0"}, {"e3"}])


def _backtrack_to_none():
    """The search backtracks twice and finds no certificate, within its
    budget (11 candidates examined)."""
    amb = representable(BACKTRACK)
    return amb, amb.closure_subcomplex([{"e1"}, {"e2"}, {"e3"}])


@pytest.mark.parametrize("inputs, allowed, examined, steps", [
    (_t5_inner_horn, AnodyneClass.INNER, 2, 1),
    (_six_vertex_codim, AnodyneClass.INNER, 2162, 46),
    (_backtrack_once, AnodyneClass.EXTENDED_LEFT, 14, 3),
    (_backtrack_to_none, AnodyneClass.BINARY_EXTENDED_LEFT, 11, None),
], ids=["t5-inner-r", "codim-six-vertex", "backtrack-once", "backtrack-to-none"])
def test_memoised_search_equals_unmemoised_at_every_budget(inputs, allowed, examined,
                                                           steps):
    """The same certificate, `examined` and `exhausted_budget` at every
    budget from 1 to the unbudgeted count (an even sample of at least 50 of
    them when there are more), and just past it."""
    amb, start = inputs()
    full = unmemoised_search(amb, start, amb.full(), allowed)
    assert (full.examined, full.exhausted_budget) == (examined, False)
    if steps is None:
        assert full.certificate is None
    else:
        assert len(full.certificate.steps) == steps
        assert verify_certificate(full.certificate).valid
    assert search_certificate(amb, start, amb.full(), allowed) == full
    n = full.examined
    budgets = sorted(set(range(1, n + 1, max(1, n // 60))) | {n - 1, n, n + 1} - {0})
    assert len(budgets) >= min(n + 1, 50)
    for b in budgets:
        res = search_certificate(amb, start, amb.full(), allowed, budget=b)
        assert res == unmemoised_search(amb, start, amb.full(), allowed, budget=b), b
        assert res.exhausted_budget == (b < n)
