"""Dendrices of nerves: enumeration, faces, degeneracies, underlying sset."""

import itertools

import pytest

from dendro.complexes import Complex
from dendro.kan import tree_shapes
from dendro.nerves import (CompiledShape, Dendrex, check_dendrex, count_dendrices,
                           degeneracy_of, dendrex_closure, dendrices, dendrices_with_colours,
                           face_of, is_degenerate, labellings, simplex_counts,
                           underlying_sset)
from dendro.operads import CORPUS, table_operad_from
from dendro.trees import (COROLLA_FACE, INNER_FACE, Tree, Vertex, c2, corolla, eta,
                          face, faces, linear)


def test_dendrex_count_c2_z2(z2):
    assert len(dendrices(z2, c2())) == 4


def test_a_dendrex_equals_no_other_type(z2):
    d = dendrices(z2, c2())[0]
    assert d != 3 and d != "d" and d != d.shape


def test_dendrex_count_eta(z3):
    assert len(dendrices(z3, eta())) == 3


def test_dendrex_count_c2_bz2(bz2):
    assert len(dendrices(bz2, c2())) == 2


@pytest.mark.parametrize("tree", tree_shapes(4))
def test_discrete_group_count_is_leafcount_power(z2, tree):
    assert len(dendrices(z2, tree)) == 2 ** len(tree.leaves)


def test_dendrex_validation(z2):
    shape = c2()
    with pytest.raises(ValueError):
        Dendrex(shape, {"a": "0"}, {})           # missing edge colours
    with pytest.raises(ValueError):
        Dendrex(shape, {"a": "0", "b": "0", "c": "0"}, {})   # missing op
    op = z2.operations(("0", "1"), "1")[0]
    d = Dendrex(shape, {"a": "0", "b": "1", "c": "1"}, {"c": op})
    check_dendrex(z2, d)
    bad = Dendrex(shape, {"a": "0", "b": "1", "c": "0"}, {"c": op})
    with pytest.raises(ValueError):
        check_dendrex(z2, bad)


def test_inner_face_composes_colours(z3):
    shape = linear(2)
    for d in dendrices(z3, shape):
        f = face(shape, INNER_FACE, "1")
        sub = face_of(z3, d, f)
        assert sub.edge_colours == {"0": d.edge_colours["0"],
                                    "2": d.edge_colours["2"]}
        assert z3.op_profile(sub.vertex_ops["2"]) == \
            ((d.edge_colours["0"],), d.edge_colours["2"])


def test_colour_face_restricts(z2):
    shape = c2()
    d = dendrices(z2, shape)[0]
    for f in faces(shape):
        sub = face_of(z2, d, f)
        assert sub.shape == eta(f.label)
        assert sub.edge_colours == {f.label: d.edge_colours[f.label]}


@pytest.mark.parametrize("tree",
                         [t for t in tree_shapes(3) if len(t.vertices) >= 2])
def test_iterated_faces_are_consistent(z2, tree):
    """Restriction along different face paths agrees on every dendrex."""
    for d in dendrices(z2, tree):
        dendrex_closure(z2, d)     # raises ValueError on any conflict


def test_degeneracy_and_contraction_roundtrip(z2):
    shape = linear(1, edges=("x", "y"))
    for d in dendrices(z2, shape):
        dd = degeneracy_of(z2, d, "x", "w")
        assert is_degenerate(z2, dd)
        f = face(dd.shape, INNER_FACE, "w")
        back = face_of(z2, dd, f)
        # contracting the inserted identity recovers the original labels
        assert back.edge_colours == {"x": d.edge_colours["x"],
                                     "y": d.edge_colours["y"]}
        assert back.vertex_ops == {"y": d.vertex_ops["y"]}


def test_eta_degeneracy_is_degenerate(z2):
    d = dendrices(z2, eta("e"))[0]
    dd = degeneracy_of(z2, d, "e", "f")
    assert len(dd.shape.vertices) == 1
    assert is_degenerate(z2, dd)


def test_degeneracy_rejects_used_name(z2):
    d = dendrices(z2, eta("e"))[0]
    with pytest.raises(Exception):
        degeneracy_of(z2, d, "e", "e")


def test_identity_labelled_c1_is_degenerate(z2):
    shape = linear(1)
    for d in dendrices(z2, shape):
        assert is_degenerate(z2, d)     # every unary op in a discrete group
        # is forced to be the identity


def test_underlying_sset_counts(z2, bz2, mult01):
    assert underlying_sset(z2, 2).counts() == {0: 2, 1: 2, 2: 2}
    assert underlying_sset(bz2, 2).counts() == {0: 1, 1: 2, 2: 4}
    assert underlying_sset(mult01, 1).counts() == {0: 2, 1: 2}


def _chain_edges(shape):
    """Edges of a linear shape ordered from the leaf to the root."""
    (leaf,) = shape.leaves
    order = [leaf]
    while True:
        v = shape.vertex_below(order[-1])
        if v is None:
            return order
        order.append(v.output)


def _simplicial_face(p, d, i):
    shape = d.shape
    k = len(shape.vertices)
    chain = _chain_edges(shape)
    if k == 1:
        f = face(shape, COROLLA_FACE, chain[1 - i])
    elif i == 0:
        f = face(shape, "top", chain[1])
    elif i == k:
        f = face(shape, "root", chain[k])
    else:
        f = face(shape, INNER_FACE, chain[i])
    return face_of(p, d, f)


def test_simplicial_identities(bz2):
    table = underlying_sset(bz2, 3)
    for k in range(2, 4):
        for d in table.simplices[k]:
            for j in range(1, k + 1):
                for i in range(j):
                    lhs = _simplicial_face(bz2, _simplicial_face(bz2, d, j), i)
                    rhs = _simplicial_face(bz2, _simplicial_face(bz2, d, i),
                                           j - 1)
                    assert lhs == rhs, (k, i, j, d)


def test_dendrex_repr_and_hash(z2):
    a, b = dendrices(z2, c2())[:2]
    assert a != b
    assert hash(a) == hash(Dendrex(a.shape, a.edge_colours, a.vertex_ops))
    assert "Dendrex(" in repr(a)


# -- the one enumerator against a brute-force reference ----------------------

_SHAPES = tree_shapes(3) + [eta()]
# "table:x" is the corpus operad x as explicit tables up to arity 5, whose
# operations are not SMC tokens and whose lookups go through dicts
_TABLE = "table:"


def _operad(name):
    if name.startswith(_TABLE):
        return table_operad_from(CORPUS[name[len(_TABLE):]](), 5)
    return CORPUS[name]()


def _small_shapes(name, p):
    """The shapes the brute force affords: every shape for up to three
    colours, and those with at most two vertices for four colours or for
    tables."""
    small = len(p.colours) > 3 or name.startswith(_TABLE)
    return [t for t in _SHAPES if not (small and len(t.vertices) > 2)]


def _reference_dendrices(p, shape):
    """Every colouring of the edges, then every choice of operations."""
    edges = sorted(shape.edges)
    out = []
    for combo in itertools.product(p.colours, repeat=len(edges)):
        cols = dict(zip(edges, combo))
        choices = [[(v.output, op) for op in
                    p.operations(tuple(cols[e] for e in v.inputs), cols[v.output])]
                   for v in shape.vertices]
        out.extend(Dendrex(shape, cols, dict(ops)) for ops in itertools.product(*choices))
    return out


def _sort_key(d):
    return sorted(d.edge_colours.items()) + [str(sorted(map(str, d.vertex_ops.items())))]


@pytest.mark.parametrize("name", sorted(CORPUS) + [_TABLE + "bz2"])
def test_dendrices_match_brute_force(name):
    """The sorted enumerator lists exactly the reference dendrices, on the
    shapes of `_small_shapes`."""
    p = _operad(name)
    for shape in _small_shapes(name, p):
        assert dendrices(p, shape) == sorted(_reference_dendrices(p, shape),
                                             key=_sort_key), shape


@pytest.mark.parametrize("name", sorted(CORPUS) + [_TABLE + "bz2"])
def test_candidate_groups_keep_the_backtracking_order(name):
    """A node's ids list `dendrices_with_colours` in its order, and a group
    of `CompiledShape.groups` is what filtering them by their ids on the
    shared slots leaves, as their ids on the new slots, in that order: the
    witness order of the Kan-report JSON.  Tried with no slot and with each
    η slot (the colour of one edge) shared, on the closures that
    `test_compiled_shape_matches_reference` checks.  Every output is a valid
    dendrex: the enumerator builds them unchecked.  Shapes as in the
    brute-force test above."""
    p = _operad(name)
    for tree in _small_shapes(name, p):
        shape = CompiledShape(p, Complex([tree]))
        for node in shape.nodes:
            every = dendrices_with_colours(p, node.shape)
            for d in every:
                check_dendrex(p, d)
            ids = node.ids
            assert [shape.dendrex(i) for i in ids] == every, node.shape
            etas = [k for k, s in enumerate(node.slots) if len(shape.cells.order[s]) == 1]
            for shared in [()] + [(k,) for k in etas]:
                new = tuple(k for k in range(len(node.slots)) if k not in shared)
                got = shape.groups(node, shared, new)
                pairs = [(tuple(map(clo.__getitem__, shared)), tuple(map(clo.__getitem__, new)))
                         for clo in map(shape.closures.__getitem__, ids) if clo is not None]
                assert got == {key: [n for s, n in pairs if s == key]
                               for key in dict(pairs)}, (node.shape, shared)


# -- compiled shapes against the reference -----------------------------------

def _reference_closure(p, d):
    """`dendrex_closure`, or None where it raises."""
    try:
        return dendrex_closure(p, d)
    except ValueError:
        return None


def _check_done(shape) -> int:
    """Checks every id of every node: its restrictions are `face_of` along
    each face and, once its node is closed, its closure is
    `dendrex_closure` keyed by edge set, None exactly where that raises.
    Returns the number of closures that are None."""
    p, conflicts = shape.p, 0
    for node in shape.nodes:
        fs = faces(node.shape) if node.shape.vertices else []
        for i in node.ids:
            d = shape.dendrex(i)
            assert [shape.dendrex(k) for k in shape.restrictions[i]] \
                == [face_of(p, d, f) for f in fs], d
            if i in shape.closures:
                clo = shape.closures[i]
                got = None if clo is None else {shape.cells.order[s]: shape.dendrex(k)
                                                for s, k in zip(node.slots, clo)}
                assert got == _reference_closure(p, d), d
                conflicts += clo is None
    return conflicts


def _compiled_conflicts(p, tree) -> int:
    """Compiles the tree, closes it and checks every id (`_check_done`),
    returning the number of closures that are None."""
    shape = CompiledShape(p, Complex([tree]))
    shape.close(shape.nodes[-1])
    assert all(i in shape.closures for node in shape.nodes for i in node.ids)
    return _check_done(shape)


@pytest.mark.parametrize("name,bound", [
    ("z2", 3), ("bz2", 3), ("mult01", 3), ("z3", 2), ("z4", 2), ("z2xz2", 2),
    (_TABLE + "z2", 2), (_TABLE + "bz2", 2), (_TABLE + "mult01", 2)])
def test_compiled_shape_matches_reference(name, bound):
    """Restrictions and closures of every compiled node equal `face_of` and
    `dendrex_closure`, on four-colour operads and on tables too."""
    p = _operad(name)
    for tree in tree_shapes(bound):
        assert _compiled_conflicts(p, tree) == 0, tree


def test_compiled_closure_fails_where_reference_raises(bz2_nonassociative):
    assert _compiled_conflicts(bz2_nonassociative, linear(3)) > 0
    assert _compiled_conflicts(bz2_nonassociative, linear(4)) > 0


@pytest.mark.parametrize("name", ["z3", "z2xz2", "bz2", "mult01", _TABLE + "mult01"])
def test_labellings_match_brute_force(name):
    """`labellings` lists each reference dendrex exactly once, as a tuple,
    on every shape with at most 2 vertices and on the 4-corolla; its order
    is pinned by the Kan goldens, whose witnesses come in enumerator order."""
    p = (table_operad_from(CORPUS["mult01"](), 4) if name.startswith(_TABLE)
         else CORPUS[name]())
    for shape in tree_shapes(2) + [corolla(4)]:
        edges, outs = sorted(shape.edges), sorted(shape._above)
        want = {tuple(map(d.edge_colours.get, edges)) + tuple(map(d.vertex_ops.get, outs))
                for d in _reference_dendrices(p, shape)}
        got = labellings(p, shape)
        assert len(set(got)) == len(got), shape
        assert sorted(got) == sorted(want), shape


def test_labellings_look_up_once_per_input_colouring(monkeypatch):
    """A vertex whose output is not coloured yet takes its output colour and
    operations from one `operations_from` per colouring of its inputs."""
    p = CORPUS["z4"]()
    calls = []
    lookup = p.operations_from
    monkeypatch.setattr(p, "operations_from", lambda ins: calls.append(ins) or lookup(ins))
    assert len(labellings(p, corolla(5))) == 4 ** 5
    assert len(calls) == 4 ** 5


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_count_dendrices_is_the_number_listed(name):
    """The bottom-up product counts exactly the `labellings` of every shape
    with at most 4 vertices, and of eta."""
    p = CORPUS[name]()
    for shape in tree_shapes(4) + [eta()]:
        assert count_dendrices(p, shape) == len(labellings(p, shape)), shape


@pytest.mark.parametrize("name", sorted(CORPUS) + [_TABLE + "mult01", _TABLE + "bz2"])
def test_simplex_counts_sweep_equals_count_dendrices(name):
    """One sweep up a linear tree gives `count_dendrices(p, linear(k))`,
    the reference, at every k <= 6."""
    p = _operad(name)
    assert simplex_counts(p, 6) == [count_dendrices(p, linear(k)) for k in range(7)]
