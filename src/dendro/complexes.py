"""Cell complexes of subtrees.

A complex is generated by finitely many trees sharing an ambient edge
alphabet; its cells are all iterated faces of the generators.  Within one
ambient complex a cell is determined by its edge set.

A `Complex` numbers its cells once, in (size, sorted edges) order, so that
every face of a cell comes before it.  Bottom-up it stores each cell's face
indices and its closure as an int bitmask, `bit(c) | OR(closure(f))` over
the faces f of c.  A subcomplex is such a mask, a `Subcomplex` or a bare
int inside the certificate code: meeting a closure is `&`, attaching a cell
is `|=`.  `Complex.cells`, `closure` and `Subcomplex.cells` still speak in
frozensets of edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Iterator

from .trees import FaceDescriptor, Tree, face, faces

Cell = frozenset


def closure_cells(tree: Tree) -> dict[Cell, Tree]:
    """All iterated faces of a tree (including itself), keyed by edge set."""
    out: dict[Cell, Tree] = {tree.edges: tree}
    frontier = [tree]
    while frontier:
        t = frontier.pop()
        if not t.vertices:
            continue
        for f in faces(t):
            if f.subtree.edges not in out:
                out[f.subtree.edges] = f.subtree
                frontier.append(f.subtree)
    return out


def reject_stumps(tree: Tree) -> None:
    """Raise ValueError if the tree has a vertex without inputs: removing it
    keeps the edge set, and cells are keyed by edge set."""
    stumps = [v.output for v in tree.vertices if not v.inputs]
    if stumps:
        raise ValueError(f"vertex {stumps[0]!r} has no inputs; complexes "
                         f"of trees with such vertices are not supported")


class Complex:
    """The union of the closures of a finite family of generator trees.

    `order[i]` is the cell with index i and `cell_trees[i]` its tree;
    `face_lists[i]` holds its faces (`faces()` of the tree, empty for eta)
    and `face_ids[i]` their cell indices; `masks[i]` is the bitmask of its
    closure.
    """

    def __init__(self, generators: Iterable[Tree]):
        self.generators = tuple(generators)
        if not self.generators:
            raise ValueError("a complex needs at least one generator")
        found: dict[Cell, Tree] = {}
        for g in self.generators:
            reject_stumps(g)
            for es, t in closure_cells(g).items():
                prev = found.get(es)
                if prev is not None and prev != t:
                    raise ValueError(f"generators disagree on cell {sorted(es)}")
                found[es] = t
        self.order: tuple[Cell, ...] = tuple(sorted(found, key=lambda c: (len(c), sorted(c))))
        self.index: dict[Cell, int] = {c: i for i, c in enumerate(self.order)}
        self.cell_trees: tuple[Tree, ...] = tuple([found[c] for c in self.order])
        self.face_lists: list[list[FaceDescriptor]] = []
        self.face_ids: list[list[int]] = []
        self.masks: list[int] = []
        index, masks = self.index, self.masks
        for i, t in enumerate(self.cell_trees):
            fs = faces(t) if t.vertices else []
            ids = [index[f.subtree.edges] for f in fs]
            mask = 1 << i
            for j in ids:
                mask |= masks[j]
            self.face_lists.append(fs)
            self.face_ids.append(ids)
            masks.append(mask)
        self.full_mask = (1 << len(self.order)) - 1

    # -- cells and masks ----------------------------------------------------

    @property
    def cells(self) -> dict[Cell, Tree]:
        """Cell -> its tree, in index order, built from `order` and `cell_trees`."""
        return dict(zip(self.order, self.cell_trees))

    def index_of(self, cell: Iterable[str], within: int = -1) -> int:
        """The index of a cell in the mask `within` (-1: any cell)."""
        i = self.index.get(frozenset(cell))
        if i is None or not within >> i & 1:
            raise KeyError(f"not a cell of the complex: {sorted(cell)}")
        return i

    def tree_of(self, cell: Cell) -> Tree:
        return self.cell_trees[self.index_of(cell)]

    def cell_mask(self, cells: Iterable[Iterable[str]]) -> int:
        """The mask of exactly the given cells."""
        mask = 0
        for c in cells:
            i = self.index.get(frozenset(c))
            if i is None:
                raise ValueError(f"not an ambient cell: {sorted(c)}")
            mask |= 1 << i
        return mask

    def closure_mask(self, cells: Iterable[Iterable[str]], within: int = -1) -> int:
        """The mask of the closure of the given cells, which must lie in the
        mask `within`."""
        mask = 0
        for c in cells:
            mask |= self.masks[self.index_of(c, within)]
        return mask

    def indices(self, mask: int) -> list[int]:
        """The indices of the cells in a mask, ascending."""
        return [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]

    def cells_of(self, mask: int) -> frozenset[Cell]:
        return frozenset(compress(self.order, map("1".__eq__, bin(mask)[:1:-1])))

    def horn_mask(self, i: int, omitted_key: tuple[str, str]) -> int:
        """The closure of every face of cell i but the omitted one."""
        omitted = face(self.cell_trees[i], *omitted_key).subtree.edges
        return self._kept_closure(i, self.index[omitted])

    def _kept_closure(self, i: int, omitted: int | None) -> int:
        """The closure of the faces of cell i but the face with cell index
        `omitted` (of all of them for None); the faces of a cell have
        distinct edge sets, so that leaves out one face."""
        mask = 0
        for j in self.face_ids[i]:
            if j != omitted:
                mask |= self.masks[j]
        return mask

    def attachment(self, i: int, current: int) -> tuple[str, str] | None:
        """The key of the face along which attaching cell i to `current` is
        a horn pushout, or None: exactly one face is missing and the closure
        of i meets `current` in the closure of the other faces.  No face of
        a cell lies in the closure of another, so this is the one key k
        with `masks[i] & current == horn_mask(i, k)`, the verifier's test."""
        ids = self.face_ids[i]
        missing = [k for k, j in enumerate(ids) if not current >> j & 1]
        if len(missing) != 1 or \
                self.masks[i] & current != self._kept_closure(i, ids[missing[0]]):
            return None
        return self.face_lists[i][missing[0]].key

    # -- subcomplexes ------------------------------------------------------

    def closure(self, cell: Iterable[str]) -> frozenset[Cell]:
        return self.cells_of(self.masks[self.index_of(cell)])

    def subcomplex(self, cells: Iterable[Iterable[str]]) -> "Subcomplex":
        return Subcomplex(self, self.cell_mask(cells))

    def closure_subcomplex(self, cells: Iterable[Iterable[str]]) -> "Subcomplex":
        return Subcomplex(self, self.closure_mask(cells))

    def full(self) -> "Subcomplex":
        return Subcomplex(self, self.full_mask)

    def boundary(self, cell: Iterable[str]) -> "Subcomplex":
        return Subcomplex(self, self._kept_closure(self.index_of(cell), None))

    def horn_subcomplex(self, cell: Iterable[str], omitted_key: tuple[str, str]) -> "Subcomplex":
        return Subcomplex(self, self.horn_mask(self.index_of(cell), omitted_key))


@dataclass(frozen=True)
class Subcomplex:
    """A set of cells of the ambient complex, as the mask of their indices."""
    ambient: Complex
    mask: int = 0

    @property
    def cells(self) -> frozenset[Cell]:
        return self.ambient.cells_of(self.mask)

    def __contains__(self, cell: Iterable[str]) -> bool:
        i = self.ambient.index.get(frozenset(cell))
        return i is not None and bool(self.mask >> i & 1)

    def __iter__(self) -> Iterator[Cell]:
        order = self.ambient.order
        return iter([order[i] for i in self.ambient.indices(self.mask)])

    def __len__(self) -> int:
        return self.mask.bit_count()

    def _same_ambient(self, other: "Subcomplex") -> None:
        if self.ambient is not other.ambient:
            raise ValueError("subcomplexes live in different ambient complexes")

    def union(self, other: "Subcomplex") -> "Subcomplex":
        self._same_ambient(other)
        return Subcomplex(self.ambient, self.mask | other.mask)

    def intersection(self, other: "Subcomplex") -> "Subcomplex":
        self._same_ambient(other)
        return Subcomplex(self.ambient, self.mask & other.mask)

    def difference(self, other: "Subcomplex") -> "Subcomplex":
        self._same_ambient(other)
        return Subcomplex(self.ambient, self.mask & ~other.mask)

    def __le__(self, other: "Subcomplex") -> bool:
        self._same_ambient(other)
        return not self.mask & ~other.mask

    def is_face_closed(self) -> bool:
        return not self.face_closure_violations()

    def face_closure_violations(self) -> list[tuple[Cell, Cell]]:
        """Pairs (cell, missing face cell) witnessing failure of closure."""
        amb = self.ambient
        bad = [(amb.order[i], amb.order[j]) for i in amb.indices(self.mask)
               for j in amb.face_ids[i] if not self.mask >> j & 1]
        return sorted(bad, key=lambda p: (sorted(p[0]), sorted(p[1])))

    def is_proper(self) -> bool:
        return self.mask != self.ambient.full_mask

    def maximal_cells(self) -> list[Cell]:
        amb = self.ambient
        covered = 0
        for i in amb.indices(self.mask):
            for j in amb.face_ids[i]:
                covered |= 1 << j
        return [amb.order[i] for i in amb.indices(self.mask & ~covered)]


def representable(tree: Tree) -> Complex:
    return Complex([tree])
