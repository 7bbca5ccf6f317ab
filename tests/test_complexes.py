"""Cell complexes and subcomplex algebra."""

import pytest
from hypothesis import given, settings, strategies as st

from dendro.complexes import Complex, closure_cells, representable
from dendro.kan import tree_shapes
from dendro.shuffles import c2_tensor_complex
from dendro.trees import Tree, TreeError, Vertex, c2, eta, faces


@pytest.fixture
def two_level():
    return Tree((Vertex(("a_0", "b_0"), "c_0"), Vertex(("c_0",), "c_1")), "c_1")


def test_closure_of_corolla():
    cells = closure_cells(c2())
    assert set(cells) == {frozenset({"a", "b", "c"}), frozenset({"a"}),
                          frozenset({"b"}), frozenset({"c"})}


def test_closure_of_eta_is_itself():
    t = eta("e")
    assert set(closure_cells(t)) == {frozenset({"e"})}


def test_complex_requires_generators():
    with pytest.raises(ValueError):
        Complex([])


def test_tree_of_unknown_cell(two_level):
    amb = representable(two_level)
    with pytest.raises(KeyError):
        amb.tree_of(frozenset({"zz"}))


def test_closure_is_face_closed(two_level):
    amb = representable(two_level)
    full = amb.full()
    assert full.is_face_closed()
    assert not full.is_proper()
    assert full.maximal_cells() == [two_level.edges]


def test_horn_subcomplex_counts(two_level):
    amb = representable(two_level)
    bd = amb.boundary(two_level.edges)
    hc = amb.horn_subcomplex(two_level.edges, ("inner", "c_0"))
    assert hc.cells < bd.cells
    # the omitted face cell is exactly what the horn is missing
    missing = bd.cells - hc.cells
    assert missing == {two_level.edges - {"c_0"}}


def test_horn_subcomplex_rejects_bad_key(two_level):
    amb = representable(two_level)
    with pytest.raises(TreeError):
        amb.horn_subcomplex(two_level.edges, ("inner", "zz"))


def test_boolean_algebra(two_level):
    amb = representable(two_level)
    top = amb.closure_subcomplex([{"a_0", "b_0", "c_0"}])
    root = amb.closure_subcomplex([{"c_0", "c_1"}])
    both = top.union(root)
    assert top <= both and root <= both
    assert top.intersection(root).cells == {frozenset({"c_0"})}
    assert both.difference(root).cells == top.cells - root.cells
    assert len(both) == len(top.cells | root.cells)
    assert frozenset({"c_0"}) in top


def test_mixed_ambients_rejected(two_level):
    a1 = representable(two_level)
    a2 = representable(c2())
    with pytest.raises(ValueError):
        a1.full().union(a2.full())


def test_subcomplex_rejects_foreign_cells(two_level):
    amb = representable(two_level)
    with pytest.raises(ValueError):
        amb.subcomplex([{"zz"}])


def test_closure_idempotence():
    amb = c2_tensor_complex(2)
    once = amb.closure_subcomplex([c for c in amb.cells if len(c) >= 3])
    again = amb.closure_subcomplex(once.cells)
    assert once.cells == again.cells


def test_face_closure_violations_pinpoint(two_level):
    amb = representable(two_level)
    broken = amb.subcomplex([two_level.edges])
    bad = broken.face_closure_violations()
    assert bad
    assert all(cell == two_level.edges for cell, _ in bad)
    assert not broken.is_face_closed()


def test_generators_must_agree():
    s = Tree((Vertex(("a", "b"), "c"),), "c")
    t = Tree((Vertex(("a",), "b"), Vertex(("b",), "c")), "c")
    with pytest.raises(ValueError):
        Complex([s, t])    # both claim the cell {a, b, c} with different trees


def test_tensor_complex_contains_shared_faces():
    amb = c2_tensor_complex(1)
    assert frozenset({"a_0", "b_0", "c_0", "c_1"}) in amb.index        # T_0
    assert frozenset({"a_0", "a_1", "b_0", "b_1", "c_1"}) in amb.index  # T_1
    assert frozenset({"a_0", "b_0", "c_0"}) in amb.index    # shared bottom face
    assert frozenset({"a_0", "b_0", "b_1", "c_1"}) in amb.index        # alpha_1


def test_maximal_cells_of_boundary(two_level):
    amb = representable(two_level)
    bd = amb.boundary(two_level.edges)
    assert set(bd.maximal_cells()) == {f.subtree.edges for f in faces(two_level)}


# -- cell indexing against the reference closure ------------------------------

def _differential_complexes():
    for tree in tree_shapes(5):
        yield representable(tree)
    for n in (1, 2, 3):
        yield c2_tensor_complex(n)


def test_closure_masks_match_reference():
    for amb in _differential_complexes():
        assert list(amb.cells) == sorted(amb.cells, key=lambda c: (len(c), sorted(c)))
        for cell, tree in amb.cells.items():
            assert amb.closure(cell) == frozenset(closure_cells(tree)), sorted(cell)


def _brute_force_attachment(amb, current: frozenset, cell):
    """The key of the face along which the cell attaches as a horn pushout,
    or None, straight from the definition: exactly one face is missing, and
    the closure of the cell meets the current subcomplex in the closure of
    the kept faces."""
    tree = amb.tree_of(cell)
    fs = faces(tree) if tree.vertices else []
    missing = [f.key for f in fs if f.subtree.edges not in current]
    if len(missing) != 1:
        return None
    kept = set()
    for f in fs:
        if f.key != missing[0]:
            kept |= closure_cells(f.subtree).keys()
    return missing[0] if closure_cells(tree).keys() & current == kept else None


_ATTACH_AMBIENTS = [representable(t) for t in tree_shapes(4)] + \
    [c2_tensor_complex(1), c2_tensor_complex(2)]


def test_a_cell_attaches_along_the_one_face_outside_the_others():
    """The closure of all faces of a cell but one is a union of closures
    missing that one face, and the cell attaches to it along that face:
    with one face missing, the meet is always the horn."""
    for tree in tree_shapes(4):
        amb = Complex([tree])
        for i, ids in enumerate(amb.face_ids):
            for k, j in enumerate(ids):
                assert amb.attachment(i, amb._kept_closure(i, j)) == \
                    amb.face_lists[i][k].key, (tree, amb.order[i], k)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_attachment_matches_brute_force(data):
    """On face-closed subcomplexes, and on arbitrary cell sets, where a
    single missing face need not make a horn pushout."""
    amb = data.draw(st.sampled_from(_ATTACH_AMBIENTS))
    cells = sorted(amb.cells, key=sorted)
    if data.draw(st.booleans()):
        chosen = data.draw(st.lists(st.sampled_from(cells), max_size=4))
        current = amb.closure_subcomplex(chosen).cells
    else:
        current = frozenset(data.draw(st.lists(st.sampled_from(cells))))
    mask = amb.cell_mask(current)
    for cell in cells:
        i = amb.index_of(cell)
        key = amb.attachment(i, mask)
        assert key == _brute_force_attachment(amb, current, cell), sorted(cell)
        # the verifier's test: the closure meets `current` in the horn
        horns = [f.key for f in amb.face_lists[i]
                 if amb.masks[i] & mask == amb.horn_mask(i, f.key)]
        assert horns == ([] if key is None else [key]), sorted(cell)
