"""Shuffles against linear trees and their named cells."""

import importlib.util
import itertools
from pathlib import Path

import pytest

from dendro.kan import tree_shapes
from dendro.shuffles import (c2_shuffle, c2_tensor_complex, filtration_base,
                             named_cell, pair, shuffle, shuffles,
                             tensor_complex)
from dendro.trees import (Tree, TreeError, Vertex, c2, corolla, eta,
                          extended_corolla, isomorphic, linear)


# -- reference oracle: the shuffles found by percolation ---------------------

def _canonical_shuffle(s: Tree, n: int) -> Tree:
    """S at level 0 grafted over the chain (root,0) .. (root,n)."""
    vs = [Vertex(tuple(pair(e, 0) for e in v.inputs), pair(v.output, 0))
          for v in s.vertices]
    for i in range(n):
        vs.append(Vertex((pair(s.root, i),), pair(s.root, i + 1)))
    return Tree(tuple(vs), pair(s.root, n))


def _percolations(shuffle: Tree) -> list[Tree]:
    """All single percolation moves pushing an S-vertex down one level."""
    out = []
    for v in shuffle.vertices:
        e, i = v.output.rsplit("_", 1)
        i = int(i)
        if any(inp.rsplit("_", 1)[1] != str(i) for inp in v.inputs):
            continue   # a level vertex, not an S-vertex at level i
        below = shuffle.vertex_below(v.output)
        if below is None or below.inputs != (v.output,):
            continue
        be, bi = below.output.rsplit("_", 1)
        if be != e or int(bi) != i + 1:
            continue   # the vertex below is not the level move e_i -> e_{i+1}
        vs = [w for w in shuffle.vertices if w not in (v, below)]
        for inp in v.inputs:
            f = inp.rsplit("_", 1)[0]
            vs.append(Vertex((pair(f, i),), pair(f, i + 1)))
        vs.append(Vertex(tuple(pair(inp.rsplit("_", 1)[0], i + 1) for inp in v.inputs),
                         pair(e, i + 1)))
        out.append(Tree(tuple(vs), shuffle.root))
    return out


def percolation_shuffles(s: Tree, n: int) -> list[Tree]:
    """The shuffles reached from the canonical one (S at level 0) by
    percolation moves pushing S-vertices down past level vertices,
    deduplicated by edge set and sorted by it."""
    start = _canonical_shuffle(s, n)
    seen = {start.edges: start}
    frontier = [start]
    while frontier:
        for nxt in _percolations(frontier.pop()):
            if nxt.edges not in seen:
                seen[nxt.edges] = nxt
                frontier.append(nxt)
    return sorted(seen.values(), key=lambda t: sorted(t.edges))


def written(t: Tree):
    return t.root, t.vertices


_ORACLE_TREES = [*tree_shapes(4), eta("e"), corolla(0),
                 Tree((Vertex(("x_1", "y_2"), "r_0"), Vertex(("p",), "x_1")), "r_0")]


@pytest.mark.parametrize("n", range(4))
def test_shuffles_match_the_percolation_search(n):
    for s in _ORACLE_TREES:
        assert [written(t) for t in shuffles(s, n)] == \
            [written(t) for t in percolation_shuffles(s, n)], s


@pytest.mark.parametrize("s", tree_shapes(2, 2), ids=repr)
@pytest.mark.parametrize("n", range(3))
def test_tensor_complex_maximal_cells_are_the_shuffles(s, n):
    amb = tensor_complex(s, n)
    assert set(amb.full().maximal_cells()) == {t.edges for t in shuffles(s, n)}


def level_function_count(s: Tree, n: int) -> int:
    """Counting oracle: the level maps V(S) -> {0..n} that weakly increase
    towards the root, counted by a filter over all level tuples."""
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


def _census():
    """`scripts/shuffle_census.py`, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "shuffle_census.py"
    spec = importlib.util.spec_from_file_location("shuffle_census", path)
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    return census


@pytest.mark.parametrize("n", range(4))
def test_census_recursion_matches_the_level_filter(n):
    """The census script's recursive count of level maps, which builds no
    shuffle, agrees with the filter over all level tuples."""
    count = _census().level_map_count
    for s in [*tree_shapes(4), eta("e"), corolla(0)]:
        assert count(s, n) == level_function_count(s, n), s


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


def test_a_level_map_decreasing_towards_the_root_spans_no_tree():
    s = Tree((Vertex(("p", "q"), "a"), Vertex(("a", "b"), "c")), "c")
    assert shuffle(s, 2, {"a": 1, "c": 1}).edges >= {"a_1", "c_1"}
    with pytest.raises(TreeError):
        shuffle(s, 2, {"a": 2, "c": 1})


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
    t = shuffle(c2(), 2, {"c": 0})
    assert t.root == pair("c", 2)
    assert t.edges == {"a_0", "b_0", "c_0", "c_1", "c_2"}


def test_named_cells_small():
    amb = c2_tensor_complex(1)
    assert named_cell(amb, "pi", 1, i=0).edges == frozenset({"a_1", "b_1", "c_1"})
    assert named_cell(amb, "alpha", 1).edges == frozenset({"a_0", "b_0", "b_1", "c_1"})
    assert named_cell(amb, "beta", 1).edges == frozenset({"a_0", "b_0", "c_0", "c_1"})
    assert named_cell(amb, "gamma", 1).edges == frozenset({"a_0", "a_1", "b_1", "c_1"})


@pytest.mark.parametrize("n", [1, 2, 3])
def test_named_cell_pi_at_level_n(n):
    """pi_n keeps a_0..a_{n-1} and the level n-1 edges b_{n-1}, c_{n-1}."""
    amb = c2_tensor_complex(n)
    assert named_cell(amb, "pi", n, i=n).edges == \
        frozenset([f"a_{t}" for t in range(n)] + [f"b_{n - 1}", f"c_{n - 1}"])


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


@pytest.mark.parametrize("kind,i,j,bad", [
    ("pi", 7, 0, 7),
    ("d", -1, 1, -1),
    ("d", 5, 0, 5),
    ("sigma_alpha", 0, 9, 9),
])
def test_named_cell_rejects_levels_out_of_range(kind, i, j, bad):
    amb = c2_tensor_complex(2)
    with pytest.raises(TreeError, match=rf"^level {bad} out of range 0\.\.2$"):
        named_cell(amb, kind, 2, i=i, j=j)


@pytest.mark.parametrize("kind", ["pi", "alpha", "beta", "sigma_alpha"])
def test_named_cells_with_level_n_minus_1_edges_need_n_at_least_1(kind):
    """pi_n, alpha and beta hold b_{n-1} and c_{n-1}; at n = 0 they are no
    cells, and asking for one is a TreeError, not a KeyError."""
    with pytest.raises(TreeError, match=rf"^named cell {kind} needs n >= 1, got n = 0$"):
        named_cell(c2_tensor_complex(0), kind, 0)


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
