"""Shuffles against linear trees and their named cells."""

import itertools

import pytest

from dendro.shuffles import (c2_shuffle, c2_tensor_complex, canonical_shuffle,
                             filtration_base, named_cell, pair, shuffles,
                             tensor_complex)
from dendro.trees import (Tree, TreeError, Vertex, c2, corolla, eta,
                          extended_corolla, isomorphic, linear)


def level_function_count(s: Tree, n: int) -> int:
    """Independent oracle: shuffles correspond to level assignments
    V(S) -> {0..n} that weakly increase towards the root."""
    vs = list(s.vertices)
    below = {}
    for i, v in enumerate(vs):
        w = s.vertex_below(v.output)
        if w is not None:
            below[i] = vs.index(w)
    count = 0
    for levels in itertools.product(range(n + 1), repeat=len(vs)):
        if all(levels[i] <= levels[j] for i, j in below.items()):
            count += 1
    return count


@pytest.mark.parametrize("n", range(5))
def test_c2_shuffle_count(n):
    assert len(shuffles(c2(), n)) == n + 1


@pytest.mark.parametrize("n", range(1, 5))
def test_extended_corolla_shuffle_count(n):
    assert len(shuffles(extended_corolla(n, 1), 1)) == n + 2


def test_eta_shuffles_trivially():
    shs = shuffles(eta("e"), 2)
    assert len(shs) == 1
    assert isomorphic(shs[0], linear(2))


@pytest.mark.parametrize("s,n", [
    (c2(), 3),
    (corolla(3), 2),
    (extended_corolla(1, 1), 2),
    (extended_corolla(2, 1), 1),
    (Tree((Vertex(("p", "q"), "a"), Vertex(("a", "b"), "c")), "c"), 2),
])
def test_shuffle_count_matches_level_functions(s, n):
    assert len(shuffles(s, n)) == level_function_count(s, n)


@pytest.mark.parametrize("n", range(5))
def test_c2_shuffles_are_the_named_ones(n):
    got = {t.edges for t in shuffles(c2(), n)}
    want = {c2_shuffle(n, k).edges for k in range(n + 1)}
    assert got == want


def test_c2_shuffle_rejects_bad_level():
    with pytest.raises(TreeError):
        c2_shuffle(2, 3)


@pytest.mark.parametrize("n", range(1, 5))
def test_c2_shuffle_vertex_structure(n):
    for t in shuffles(c2(), n):
        unary = [v for v in t.vertices if v.arity == 1]
        binary = [v for v in t.vertices if v.arity == 2]
        assert len(binary) == 1
        # at level k both input branches have climbed k times and the output
        # branch climbs the remaining n-k times
        k = int(binary[0].output.rsplit("_", 1)[1])
        assert len(unary) == n + k


def test_shuffle_edges_project_correctly():
    s = extended_corolla(1, 1)
    for t in shuffles(s, 2):
        for e in t.edges:
            base, lvl = e.rsplit("_", 1)
            assert base in s.edges and 0 <= int(lvl) <= 2
        # levels weakly increase towards the root
        for e in t.edges:
            path = [e]
            while path[-1] != t.root:
                path.append(t.vertex_below(path[-1]).output)
            lv = [int(x.rsplit("_", 1)[1]) for x in path]
            assert lv == sorted(lv)


def test_canonical_shuffle_shape():
    t = canonical_shuffle(c2(), 2)
    assert t.root == pair("c", 2)
    assert t.edges == {"a_0", "b_0", "c_0", "c_1", "c_2"}


def test_named_cells_small():
    amb = c2_tensor_complex(1)
    assert named_cell(amb, "pi", 1, i=0).edges == frozenset({"a_1", "b_1", "c_1"})
    assert named_cell(amb, "alpha", 1).edges == frozenset({"a_0", "b_0", "b_1", "c_1"})
    assert named_cell(amb, "beta", 1).edges == frozenset({"a_0", "b_0", "c_0", "c_1"})
    assert named_cell(amb, "gamma", 1).edges == frozenset({"a_0", "a_1", "b_1", "c_1"})


def test_named_cell_d_faces():
    amb = c2_tensor_complex(1)
    d10 = named_cell(amb, "d", 1, i=1, j=0)    # contract c_1 in T_0
    assert d10.edges == frozenset({"a_0", "b_0", "c_0"})
    d01 = named_cell(amb, "d", 1, i=0, j=1)    # drop a_0, b_0 from T_1
    assert d01.edges == frozenset({"a_1", "b_1", "c_1"})
    with pytest.raises(TreeError):
        named_cell(amb, "d", 1, i=1, j=1)
    with pytest.raises(TreeError):
        named_cell(amb, "quux", 1)


def test_sigma_alpha_is_degenerate_shape_not_a_cell():
    amb = c2_tensor_complex(1)
    shape = named_cell(amb, "sigma_alpha", 1, j=0)
    assert shape.edges not in amb.index
    assert any(v.arity == 1 and v.inputs == ("a_0",) for v in shape.vertices)


@pytest.mark.parametrize("n", range(1, 4))
def test_filtration_base_contains_mixed_faces(n):
    base = filtration_base(n)
    amb = base.ambient
    assert base.is_face_closed()
    assert base.is_proper()
    for j in range(n + 1):
        for i in range(n + 1):
            if i != j:
                assert named_cell(amb, "d", n, i, j).edges in base.cells


def test_tensor_complex_cells_are_shuffle_subtrees():
    amb = tensor_complex(c2(), 2)
    shuffle_edge_sets = [t.edges for t in shuffles(c2(), 2)]
    for cell in amb.cells:
        assert any(cell <= es for es in shuffle_edge_sets)
