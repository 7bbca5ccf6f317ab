"""Decision procedures for Kan conditions on nerves of finite operads.

A horn map is a compatible family of dendrices on all faces of a tree but
one; a filler is a dendrex of the whole tree restricting to the family.
`kan_report` runs the exhaustive check over all tree shapes up to a vertex
bound (and an arity cap, without which the shape family is infinite).

Each tree shape is compiled once per report, as `Complex([tree])`
(`nerves.CompiledShape`), whose last cell is the tree: its faces are
`face_lists[-1]`, so a horn is a list of cells, the faces but one.
`_horn_maps` lists the maps out of any list of cells into the nerve as
tuples of ids through `nerves.grow`, one level per cell, each level one
lookup in the cell's `CompiledShape.groups`.  `kan_report` counts each
map's fillers among the tree's dendrices by their compiled restrictions,
so it never closes the tree's cell, and builds `HornMap` objects only for
witnesses; `enumerate_horn_maps` builds one for every map.  `fillers`,
`face_of`, `dendrex_closure` and `Dendrex` are the reference oracle.

On a cancellative operad (`FiniteOperad.cancellative`: its laws hold, and
`f o_i g` determines f given g, and g given f), a tree with >= 3 vertices
takes no enumerator: each of its horns has exactly one filler, so the
horn maps are the dendrices' restrictions, one each, and `kan_report` adds
`nerves.count_dendrices` per face to `horns_checked` and no witness.  The
enumerator stays the reference for every other operad and tree.

Proof.  Let T have n >= 3 vertices and let the horn omit the face f.  Its
vertex tree has the vertices as nodes and the inner edges as edges; the
outer vertices (those with an outer face) are exactly its leaves, and
there are at least two.

(a) Every corolla C_v lies in at least two faces: the inner faces at the
inner edges not incident to v, and the outer faces at the outer vertices
other than v.  If v is not outer there are two of the latter; if it is,
there is one, and v meets one of the n - 1 >= 2 inner edges, so an inner
face is left.  So the horn contains the Segal core Sc[T], and a horn map
gives each edge a colour and each vertex an operation.  The nerve of an
operad is strictly Segal: a dendrex is fixed by its corollas.  So there is
at most one filler, the dendrex x with those values.

(b) x restricts to the horn map on every kept face.  A face's dendrex is
fixed by its corollas, and those of an outer face are corollas of T; so
are those of an inner face T/e but its merged vertex w_e, whose operation
must be shown to be c_e, the composite of x's operations at the ends of e.
  - If T/e has an outer vertex u other than w_e and the face T - u is
    kept, the horn map is compatible on (T - u)/e, where T - u's value,
    x's, has c_e: so w_e = c_e.
  - Otherwise every outer vertex of T/e but w_e has its face omitted, and
    only f is; so T/e's vertex tree is a path from w_e to the one other
    outer vertex u0, with f = T - u0.  Let e' be the other inner edge at
    w_e.  The end of e that e' does not meet is an outer vertex of T/e'
    other than its merged vertex, and not u0, so the first case holds for
    T/e': its value is x's.  Both faces contain T/{e, e'}, whose merged
    vertex is w_e o a from T/e and, by associativity, c_e o a from T/e'
    (or a o w_e and a o c_e), a being x's operation at the far end of e';
    cancellation gives w_e = c_e.

Inner horns need no law.  Part (a) and the first case of (b) compose
nothing but the faces' own operations, so they hold on every table whose
composites have the profiles of their merged vertices.  An inner horn
keeps every outer face, and each T/e with n >= 3 has an outer vertex
u != w_e, outer in T too, so the first case always applies.  A tree with
2 vertices keeps its two corollas.  So every inner horn map fills exactly
once, and `inner_kan` is never False.  The number of inner horn maps does
need the laws: on a non-associative table a dendrex's faces can disagree
below them, and such a restriction is no horn map.

`kan_report` keeps the witnesses, one per horn map that does not fill
exactly once, and reads the report's flags off them.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field

from .complexes import Complex
from .nerves import (CompiledShape, Dendrex, count_dendrices, dendrices, face_of, grow,
                     tuple_getter)
from .nerves import dendrices_with_colours  # noqa: F401  (perfbench traces this binding)
from .operads import FiniteOperad, TableOperad
from .trees import HornSpec, Tree, Vertex, classify_horn, face_count, faces


@dataclass(frozen=True)
class HornMap:
    """A map from a horn into the nerve: a dendrex per non-omitted face."""
    horn: HornSpec
    assignment: tuple[tuple[tuple[str, str], Dendrex], ...]   # (face key, dendrex)


def _horns(shape: CompiledShape):
    """Per face f of the top cell, the horn omitting it: (f, the positions
    of the other faces, their cells), both in the order horn maps choose
    faces, largest first, then by key."""
    fs, ids = shape.cells.face_lists[-1], shape.cells.face_ids[-1]
    order = sorted(range(len(fs)), key=lambda k: (-len(fs[k].subtree.edges), fs[k].key))
    for j, f in enumerate(fs):
        kept = [k for k in order if k != j]
        yield f, kept, [ids[k] for k in kept]


def _horn_maps(shape: CompiledShape, slots: list[int]) -> list[tuple[int, ...]]:
    """The maps into the nerve out of the subcomplex that the cells `slots`
    generate (a horn's kept faces, say), in the order of backtracking over
    the cells in the order given: the k-th id of a map is the dendrex on
    cell `slots[k]`.

    It is one `grow` level per cell.  A partial family is the tuple of the
    ids on its slots, the cells of the closures chosen so far; which slots
    are shared at each level does not depend on the choices, so each slot
    has a position fixed for the list.  A dendrex of the cell joins the
    family when its closure exists and agrees with it on every shared slot,
    which decides compatibility on all shared subtrees (the η cell of an
    edge already coloured is one of them), and appends the ids on its new
    slots: a level is one lookup in `CompiledShape.groups`.
    """
    at: dict[int, int] = {}      # slot -> position in a partial family
    levels = []
    for slot in slots:
        node = shape.nodes[slot]
        shared = tuple(k for k, s in enumerate(node.slots) if s in at)
        new = tuple(k for k, s in enumerate(node.slots) if s not in at)
        levels.append(lambda t, get=shape.groups(node, shared, new).get,
                      key=tuple_getter([at[node.slots[k]] for k in shared]): get(key(t), ()))
        start = len(at)
        at.update((node.slots[k], start + n) for n, k in enumerate(new))
    return list(map(tuple_getter([at[s] for s in slots]), grow(levels)))


def _horn_map(shape: CompiledShape, h: HornSpec, kept: list[int], chosen) -> HornMap:
    """The horn map with id `chosen[k]` on the top cell's face `kept[k]`."""
    fs = shape.cells.face_lists[-1]
    return HornMap(h, tuple((fs[k].key, shape.dendrex(d)) for k, d in zip(kept, chosen)))


def enumerate_horn_maps(p: FiniteOperad, h: HornSpec) -> list[HornMap]:
    """All horn maps into the nerve, in the order of the enumerator that
    `kan_report` runs, each built as a `HornMap`."""
    shape = CompiledShape(p, Complex([h.tree]))
    horns = {f.key: (kept, slots) for f, kept, slots in _horns(shape)}
    kept, slots = horns[h.omitted.key]
    return [_horn_map(shape, h, kept, chosen) for chosen in _horn_maps(shape, slots)]


def fillers(p: FiniteOperad, m: HornMap) -> list[Dendrex]:
    """All dendrices of the horn's tree restricting to the horn map."""
    tree = m.horn.tree
    want = dict(m.assignment)
    out = []
    for d in dendrices(p, tree):
        if all(face_of(p, d, f) == want[f.key]
               for f in faces(tree) if f.key in want):
            out.append(d)
    return out


@dataclass
class HornWitness:
    tree: Tree
    omitted: tuple[str, str]
    horn_class: str
    issue: str                   # "unfillable" or "non_unique"
    horn_map: HornMap
    filler_count: int


@dataclass
class KanReport:
    """Filler existence/uniqueness over all horns of bounded tree shapes.

    On a cancellative operad every horn of a tree with >= 3 vertices fills
    uniquely (see the module docs): bounds above 2 add horns but never
    witnesses, so the verdict is the bound-2 one, and only the arity cap
    matters."""
    operad_name: str
    max_vertices: int
    max_arity: int
    inner_kan: bool
    dendroidal_kan: bool          # every non-root horn has a filler
    fully_kan: bool               # every horn has a filler
    strict: bool                  # unique fillers on trees with > 1 vertex
    fully_unique: bool            # unique fillers on all trees
    horns_checked: int = 0
    witnesses: list[HornWitness] = field(default_factory=list)

    def summary(self) -> str:
        flags = [f"inner_kan={self.inner_kan}", f"dendroidal_kan={self.dendroidal_kan}",
                 f"fully_kan={self.fully_kan}", f"strict={self.strict}",
                 f"fully_unique={self.fully_unique}"]
        return f"{self.operad_name}: " + " ".join(flags) + \
            f" ({self.horns_checked} horns checked)"


def tree_shapes(max_vertices: int, max_arity: int = 3) -> list[Tree]:
    """One representative per isomorphism class of trees with 1..max_vertices
    vertices, all arities between 1 and max_arity."""
    shapes: list[list[tuple]] = [[()]]    # n -> canonical keys of shapes with n vertices
    for n in range(1, max_vertices + 1):
        out = set()
        for arity in range(1, max_arity + 1):
            for split in itertools.product(range(n), repeat=arity):
                if sum(split) == n - 1:
                    out.update(tuple(sorted(combo))
                               for combo in itertools.product(*[shapes[k] for k in split]))
        shapes.append(sorted(out))
    return [_tree_from_key(key) for keys in shapes[1:] for key in keys]


def _tree_from_key(key) -> Tree:
    """The tree of a canonical key, its edges named in pre-order."""
    counter = itertools.count()
    vertices: list[Vertex] = []
    root = f"e{next(counter)}"
    stack = [(key, root)]
    while stack:
        k, out_edge = stack.pop()
        if k:
            ins = tuple(f"e{next(counter)}" for _ in k)
            vertices.append(Vertex(ins, out_edge))
            stack.extend(reversed(list(zip(k, ins))))
    return Tree(tuple(vertices), root)


def arity_needed(max_vertices: int, max_arity: int) -> int:
    """b(a - 1) + 1: a tree of at most b vertices of arity at most a has at
    most this many leaves, the arity of the composite of all its vertices,
    so a `TableOperad` answers `kan_report` at these bounds only up to it."""
    return max_vertices * (max_arity - 1) + 1


def kan_report(p: FiniteOperad, max_vertices: int, max_arity: int = 3,
               name: str | None = None) -> KanReport:
    """Raises ValueError, before any work, for a bound below 1 or a
    `TableOperad` that stops below `arity_needed`.  Asks `p.cancellative()`
    once, when some shape has >= 3 vertices."""
    for param, value in (("max_vertices", max_vertices), ("max_arity", max_arity)):
        if value < 1:
            raise ValueError(f"{param} must be >= 1, got {value}")
    need = arity_needed(max_vertices, max_arity)
    if isinstance(p, TableOperad) and p.arity < need:
        raise ValueError(f"max_vertices {max_vertices} with max_arity {max_arity} needs "
                         f"a table of arity {need}; this one stops at arity {p.arity}")
    cancels = max_vertices >= 3 and p.cancellative()
    horns = 0
    witnesses: list[HornWitness] = []
    for tree in tree_shapes(max_vertices, max_arity):
        if cancels and len(tree.vertices) >= 3:
            horns += face_count(tree) * count_dendrices(p, tree)
            continue
        shape = CompiledShape(p, Complex([tree]))
        sigs = list(map(shape.restrictions.__getitem__, shape.nodes[-1].ids))
        for f, kept, slots in _horns(shape):
            h = HornSpec(tree, f)
            cls = classify_horn(h)
            buckets = Counter(map(tuple_getter(kept), sigs))
            maps = _horn_maps(shape, slots)
            horns += len(maps)
            for chosen in maps:
                n = buckets.get(chosen, 0)
                if n != 1:
                    witnesses.append(HornWitness(tree, f.key, cls,
                                                 "non_unique" if n else "unfillable",
                                                 _horn_map(shape, h, kept, chosen), n))
    unfillable = {w.horn_class for w in witnesses if w.issue == "unfillable"}
    non_unique = {len(w.tree.vertices) for w in witnesses if w.issue == "non_unique"}
    return KanReport(operad_name=name or getattr(p, "name", "operad"),
                     max_vertices=max_vertices, max_arity=max_arity,
                     inner_kan="inner" not in unfillable, dendroidal_kan=unfillable <= {"root"},
                     fully_kan=not unfillable, strict=non_unique <= {1},
                     fully_unique=not non_unique, horns_checked=horns, witnesses=witnesses)
