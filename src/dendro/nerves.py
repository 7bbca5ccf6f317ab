"""Dendrices of the nerve of a finite operad.

A dendrex of shape T is a colouring of the edges of T together with an
operation for each vertex whose profile matches the colours of its attached
edges.  Faces compose or restrict; degeneracies insert identity-labelled
unary vertices.  `grow` is the one enumeration loop: `labellings` lists
dendrices through it, one level per vertex, and `kan` lists maps out of a
complex through it, one level per cell.  `Dendrex` objects wrap the tuples
of `labellings`, and `CompiledShape`, which compiles a given `Complex` for
one operad, interns them as they are, cell by cell.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter

from .complexes import Complex
from .operads import FiniteOperad
from .trees import (COROLLA_FACE, INNER_FACE, ROOT_FACE, TOP_FACE,
                    FaceDescriptor, Tree, TreeError, faces, insert_unary, linear)


class Dendrex:
    """A labelled tree: edge -> colour and vertex output edge -> operation."""

    __slots__ = ("shape", "edge_colours", "vertex_ops", "_hash")

    def __init__(self, shape: Tree, edge_colours: dict[str, str], vertex_ops: dict):
        if edge_colours.keys() != shape.edges:
            raise ValueError("edge colouring does not match the shape")
        if vertex_ops.keys() != shape._vertex_outs:
            raise ValueError("vertex labelling does not match the shape")
        self.shape = shape
        self.edge_colours = dict(edge_colours)
        self.vertex_ops = dict(vertex_ops)
        self._hash = None

    @classmethod
    def _unchecked(cls, shape: Tree, edge_colours: dict, vertex_ops: dict) -> "Dendrex":
        """Internal fast path: trusts (and takes ownership of) the dicts."""
        d = object.__new__(cls)
        d.shape = shape
        d.edge_colours = edge_colours
        d.vertex_ops = vertex_ops
        d._hash = None
        return d

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Dendrex):
            return NotImplemented
        return (self.shape == other.shape
                and self.edge_colours == other.edge_colours
                and self.vertex_ops == other.vertex_ops)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.shape,
                               frozenset(self.edge_colours.items()),
                               frozenset(self.vertex_ops.items())))
        return self._hash

    def __repr__(self):
        cols = ", ".join(f"{e}:{c}" for e, c in sorted(self.edge_colours.items()))
        return f"Dendrex({cols} | {sorted(map(str, self.vertex_ops.values()))})"


def check_dendrex(p: FiniteOperad, d: Dendrex) -> None:
    for v in d.shape.vertices:
        op = d.vertex_ops[v.output]
        want = (tuple(d.edge_colours[e] for e in v.inputs), d.edge_colours[v.output])
        if p.op_profile(op) != want:
            raise ValueError(f"operation {op} at {v.output} has profile "
                             f"{p.op_profile(op)}, expected {want}")


def tuple_getter(positions):
    """The function taking a sequence or mapping to the tuple of its items at
    `positions` (`itemgetter` returns a bare item for a single position)."""
    if len(positions) == 1:
        (i,) = positions
        return lambda s: (s[i],)
    return itemgetter(*positions) if positions else (lambda s: ())


def grow(levels) -> list[tuple]:
    """The one enumeration loop.  Level k maps a partial tuple to the tuples
    appended to it; growing every partial tuple one level at a time, in the
    order of the level before, lists them in backtracking order."""
    partial: list[tuple] = [()]
    for level in levels:
        partial = [t + e for t in partial for e in level(t)]
    return partial


def labellings(p: FiniteOperad, shape: Tree) -> list[tuple[tuple, tuple]]:
    """Every dendrex of the shape as a pair (colours by sorted edge,
    operations by sorted vertex output), in the order of backtracking over
    the vertices by output edge: at each, the colours of its edges not
    coloured yet in `itertools.product` order, then `p.operations`: one
    `grow` level per vertex, over the values chosen, at fixed positions."""
    if not shape.vertices:
        return [((c,), ()) for c in p.colours]
    at: dict[str, int] = {}        # edge -> position of its colour
    op_at: dict[str, int] = {}     # vertex output -> position of its operation
    levels = []
    for v in sorted(shape.vertices, key=lambda v: v.output):
        edges = v.inputs + (v.output,)
        fixed = tuple_getter([at[e] for e in edges if e in at])
        free = [e for e in edges if e not in at]
        start = len(at) + len(op_at)
        at.update((e, start + n) for n, e in enumerate(free))
        op_at[v.output] = start + len(free)
        levels.append(_vertex_level(p, fixed, list(itertools.product(p.colours, repeat=len(free))),
                                    tuple_getter([at[e] for e in v.inputs]), at[v.output]))
    colours = tuple_getter([at[e] for e in sorted(shape.edges)])
    ops = tuple_getter([op_at[o] for o in sorted(op_at)])
    return [(colours(t), ops(t)) for t in grow(levels)]


def _vertex_level(p: FiniteOperad, fixed, combos: list[tuple], ins, out: int):
    """The `labellings` level of one vertex: colours of its free edges, then
    an operation, listed once per colouring `fixed(t)` of its other edges."""
    extensions: dict[tuple, list[tuple]] = {}

    def level(t: tuple) -> list[tuple]:
        ext = extensions.get(fixed(t))
        if ext is None:
            ext = extensions[fixed(t)] = [combo + (op,) for combo in combos
                                          for s in [t + combo]
                                          for op in p.operations(ins(s), s[out])]
        return ext
    return level


def dendrices_with_colours(p: FiniteOperad, shape: Tree) -> list[Dendrex]:
    """All dendrices of the shape, as `Dendrex` objects in `labellings`
    order."""
    edges, outs = sorted(shape.edges), sorted(shape._vertex_outs)
    return [Dendrex._unchecked(shape, dict(zip(edges, cols)), dict(zip(outs, ops)))
            for cols, ops in labellings(p, shape)]


def dendrices(p: FiniteOperad, shape: Tree) -> list[Dendrex]:
    """All dendrices of the given shape, sorted by colouring and operations."""
    return sorted(dendrices_with_colours(p, shape),
                  key=lambda d: sorted(d.edge_colours.items())
                  + [str(sorted(map(str, d.vertex_ops.items())))])


def face_of(p: FiniteOperad, d: Dendrex, f: FaceDescriptor) -> Dendrex:
    """Restrict the dendrex along a codimension-one face of its shape."""
    sub = f.subtree
    if f.kind == COROLLA_FACE:
        return Dendrex._unchecked(sub, {f.label: d.edge_colours[f.label]}, {})
    if f.kind in (TOP_FACE, ROOT_FACE):
        cols = {e: d.edge_colours[e] for e in sub.edges}
        ops = {v.output: d.vertex_ops[v.output] for v in sub.vertices}
        return Dendrex._unchecked(sub, cols, ops)
    if f.kind == INNER_FACE:
        e = f.label
        upper = d.shape.vertex_above(e)
        lower = d.shape.vertex_below(e)
        i = lower.inputs.index(e)
        merged = p.compose(d.vertex_ops[lower.output], i, d.vertex_ops[upper.output])
        cols = {x: d.edge_colours[x] for x in sub.edges}
        ops = {v.output: d.vertex_ops[v.output] for v in sub.vertices
               if v.output != lower.output}
        ops[lower.output] = merged
        return Dendrex._unchecked(sub, cols, ops)
    raise TreeError(f"unknown face kind {f.kind!r}")


def dendrex_closure(p: FiniteOperad, d: Dendrex) -> dict[frozenset, Dendrex]:
    """All iterated face restrictions, keyed by edge set.

    Restriction along different face paths to the same subtree agrees (the
    operad axioms guarantee it), so the map is well defined; a conflict
    raises ValueError.
    """
    out: dict[frozenset, Dendrex] = {d.shape.edges: d}
    frontier = [d]
    while frontier:
        cur = frontier.pop()
        if not cur.shape.vertices:
            continue
        for f in faces(cur.shape):
            sub = face_of(p, cur, f)
            prev = out.get(sub.shape.edges)
            if prev is None:
                out[sub.shape.edges] = sub
                frontier.append(sub)
            elif prev != sub:
                raise ValueError(f"inconsistent restrictions at {sorted(sub.shape.edges)}")
    return out


class _Subface:
    """One node of a compiled complex: cell `slot`, with its restriction
    plans and its interned dendrices."""

    __slots__ = ("shape", "edges", "outs", "slot", "plans", "slots", "join",
                 "ids", "found", "groups")

    def __init__(self, shape: Tree, slot: int, slots: tuple[int, ...]):
        self.shape = shape
        self.edges = tuple(sorted(shape.edges))
        self.outs = tuple(sorted(shape._vertex_outs))
        self.slot = slot
        self.slots = slots             # the cells of its closure, ascending
        self.plans: list[tuple] = []   # per face: (child, colours, operations, site)
        self.join: tuple = ()          # (pick, repeated, first): see CompiledShape.closure
        self.ids: dict[tuple, int] = {}       # (colours, operations) -> id
        self.found: list[int] | None = None
        self.groups: dict[tuple, dict] = {}


class CompiledShape:
    """A `Complex` compiled for one operad: every dendrex of every cell is an
    int.

    Nothing here numbers cells a second time: node i is cell i of
    `cells`, its slot is i and its slots are the indices of its closure
    mask, ascending.  A node keeps, per codimension-one face, a
    restriction plan: index maps for colours and operations plus, for an
    inner face, the one `compose` site (position in the face's operations,
    lower operation, input index, upper operation).  A dendrex of a node is
    a pair of `labellings` (colours by sorted edge, operations by sorted
    vertex output), interned to an id unique across the compiled complex,
    so two ids are equal exactly when the `Dendrex` objects are.  A node's
    join plan, compiled from its faces' slots, reads a dendrex's closure
    off its faces' closures (see `closure`).

    `restrictions` is `face_of` on ids and `closure` is `dendrex_closure`
    on ids, both memoised; `face_of`, `dendrex_closure` and `Dendrex` stay
    the reference they are tested against.  Every cache lives here, for as
    long as the caller keeps the compiled complex.
    """

    def __init__(self, p: FiniteOperad, cells: Complex):
        self.p = p
        self.cells = cells
        self.nodes = [_Subface(t, i, tuple(cells.indices(mask)))
                      for i, (t, mask) in enumerate(zip(cells.cell_trees, cells.masks))]
        for node, fs, ids in zip(self.nodes, cells.face_lists, cells.face_ids):
            t = node.shape
            for f, j in zip(fs, ids):
                child, site = self.nodes[j], None
                if f.kind == INNER_FACE:
                    upper, lower = t.vertex_above(f.label), t.vertex_below(f.label)
                    site = (child.outs.index(lower.output), node.outs.index(lower.output),
                            lower.inputs.index(f.label), node.outs.index(upper.output))
                node.plans.append((child,
                                   tuple_getter([node.edges.index(e) for e in child.edges]),
                                   tuple_getter([node.outs.index(o) for o in child.outs]),
                                   site))
            cat = [node.slot] + [s for plan in node.plans for s in plan[0].slots]
            first = {}
            for at, s in enumerate(cat):
                first.setdefault(s, at)
            repeated = [at for at, s in enumerate(cat) if first[s] != at]
            node.join = (tuple_getter([first[s] for s in node.slots]), tuple_getter(repeated),
                         tuple_getter([first[cat[at]] for at in repeated]))
        self.values: list[tuple] = []       # id -> (colours, operations)
        self.node_of: list[_Subface] = []   # id -> its node
        self._kids: list[tuple | None] = []  # id -> restriction ids per face
        self.closures: list = []            # id -> closure, None or PENDING

    def _new_id(self, node: _Subface, key: tuple) -> int:
        got = node.ids[key] = len(self.values)
        self.values.append(key)
        self.node_of.append(node)
        self._kids.append(None)
        self.closures.append(PENDING)
        return got

    def dendrex(self, i: int) -> Dendrex:
        """The `Dendrex` with id i."""
        node = self.node_of[i]
        cols, ops = self.values[i]
        return Dendrex._unchecked(node.shape, dict(zip(node.edges, cols)),
                                  dict(zip(node.outs, ops)))

    def dendrices(self, node: _Subface) -> list[int]:
        """`labellings` of the node as ids, in its order; run once per
        node."""
        if node.found is None:
            node.found = []
            for key in labellings(self.p, node.shape):
                got = node.ids.get(key)
                node.found.append(got if got is not None else self._new_id(node, key))
        return node.found

    def candidates(self, node: _Subface, fixed: tuple[str, ...]) -> dict[tuple, list[int]]:
        """The node's dendrices grouped by the colours of the edges `fixed`,
        each group in `labellings` order."""
        groups = node.groups.get(fixed)
        if groups is None:
            pick = tuple_getter([node.edges.index(e) for e in fixed])
            groups = node.groups[fixed] = {}
            values = self.values
            for i in self.dendrices(node):
                groups.setdefault(pick(values[i][0]), []).append(i)
        return groups

    def restrictions(self, i: int) -> tuple[int, ...]:
        """The ids of `face_of` the dendrex with id i along each face of its
        node, in `cells.face_lists` order; a `compose` error propagates."""
        got = self._kids[i]
        if got is None:
            cols, ops = self.values[i]
            out = []
            for child, colours, ops_of, site in self.node_of[i].plans:
                new_ops = ops_of(ops)
                if site is not None:
                    at, lower, j, upper = site
                    new_ops = (new_ops[:at] + (self.p.compose(ops[lower], j, ops[upper]),)
                               + new_ops[at + 1:])
                key = (colours(cols), new_ops)
                sub = child.ids.get(key)
                out.append(sub if sub is not None else self._new_id(child, key))
            got = self._kids[i] = tuple(out)
        return got

    def closure(self, i: int) -> tuple[int, ...] | None:
        """The ids of all iterated restrictions of dendrex i, one per slot of
        `node_of[i].slots` in that order, or None exactly where
        `dendrex_closure` raises `ValueError`; a `compose` error propagates.

        It joins the memoised closures of the faces by the node's join plan:
        `(i,)` and the faces' closures laid end to end hold every slot of
        the node at least once; `pick` takes each slot's first occurrence,
        in slot order, and the closures agree where they overlap iff each
        `repeated` position equals its `first` one.  Every path of
        `dendrex_closure` passes through a face, so a conflict on that walk
        is a missing or disagreeing face closure here.
        """
        got = self.closures[i]
        if got is PENDING:
            kids = [self.closure(sub) for sub in self.restrictions(i)]
            got = None
            if None not in kids:
                cat = (i,) + tuple(itertools.chain.from_iterable(kids))
                pick, repeated, first = self.node_of[i].join
                if repeated(cat) == first(cat):
                    got = pick(cat)
            self.closures[i] = got
        return got


PENDING = object()   # a closure not computed yet


def degeneracy_of(p: FiniteOperad, d: Dendrex, edge: str, fresh: str) -> Dendrex:
    """Duplicate `edge` by inserting an identity-labelled unary vertex below
    it; the new lower copy is named `fresh`."""
    colour = d.edge_colours[edge]
    shape = insert_unary(d.shape, edge, fresh)
    cols = dict(d.edge_colours)
    cols[fresh] = colour
    ops = dict(d.vertex_ops)
    ops[fresh] = p.identity(colour)
    return Dendrex(shape, cols, ops)


def is_degenerate(p: FiniteOperad, d: Dendrex) -> bool:
    """A dendrex is degenerate iff some unary vertex carries an identity."""
    return any(len(v.inputs) == 1 and d.vertex_ops[v.output] == p.identity(d.edge_colours[v.output])
               for v in d.shape.vertices)


@dataclass(frozen=True)
class SimplicialSetTable:
    """The underlying simplicial set: dendrices of linear shapes."""
    simplices: dict[int, tuple[Dendrex, ...]]

    def counts(self) -> dict[int, int]:
        return {k: len(v) for k, v in self.simplices.items()}


def underlying_sset(p: FiniteOperad, max_dim: int) -> SimplicialSetTable:
    """Simplices of dimension k are the dendrices of the linear tree with k
    vertices."""
    return SimplicialSetTable(simplices={k: tuple(dendrices(p, linear(k)))
                                         for k in range(max_dim + 1)})
