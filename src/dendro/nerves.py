"""Dendrices of the nerve of a finite operad.

A dendrex of shape T is a colouring of the edges of T together with an
operation for each vertex whose profile matches the colours of its attached
edges.  Faces compose or restrict; degeneracies insert identity-labelled
unary vertices.  `grow` is the one enumeration loop: `labellings` lists
dendrices through it, one level per vertex, and `kan` lists maps out of a
complex through it, one level per cell.  `Dendrex` objects wrap the tuples
of `labellings`; `CompiledShape` numbers them, compiling a given `Complex`
for one operad in one pass over its cells, faces first.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter

from .complexes import Complex
from .operads import FiniteOperad
from .trees import (COROLLA_FACE, INNER_FACE, ROOT_FACE, TOP_FACE,
                    FaceDescriptor, Tree, TreeError, faces, insert_unary, linear,
                    walk_up)


class Dendrex:
    """A labelled tree: edge -> colour and vertex output edge -> operation."""

    __slots__ = ("shape", "edge_colours", "vertex_ops")

    def __init__(self, shape: Tree, edge_colours: dict[str, str], vertex_ops: dict):
        if edge_colours.keys() != shape.edges:
            raise ValueError("edge colouring does not match the shape")
        if vertex_ops.keys() != shape._above.keys():
            raise ValueError("vertex labelling does not match the shape")
        self.shape = shape
        self.edge_colours = dict(edge_colours)
        self.vertex_ops = dict(vertex_ops)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Dendrex):
            return NotImplemented
        return (self.shape == other.shape
                and self.edge_colours == other.edge_colours
                and self.vertex_ops == other.vertex_ops)

    def __hash__(self):
        return hash((self.shape, frozenset(self.edge_colours.items()),
                     frozenset(self.vertex_ops.items())))

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


def labellings(p: FiniteOperad, shape: Tree) -> list[tuple]:
    """Every dendrex of the shape as one tuple (colours by sorted edge, then
    operations in vertex order), in the order of backtracking over the
    vertices, kept by output edge: at each, the colours of its edges not
    coloured yet in `itertools.product` order, then `p.operations`: one
    `grow` level per vertex, over the values chosen, at fixed positions.
    An output not coloured yet, the last factor, comes with its operations
    from one `p.operations_from` per colouring of the inputs."""
    if not shape.vertices:
        return [(c,) for c in p.colours]
    at: dict[str, int] = {}        # edge -> position of its colour
    op_at: dict[str, int] = {}     # vertex output -> position of its operation
    levels = []
    for v in shape.vertices:
        edges = v.inputs + (v.output,)
        fixed = tuple_getter([at[e] for e in edges if e in at])
        free = [e for e in edges if e not in at]
        out = None if v.output in free else at[v.output]
        start = len(at) + len(op_at)
        at.update((e, start + n) for n, e in enumerate(free))
        op_at[v.output] = start + len(free)
        combos = list(itertools.product(p.colours, repeat=len(free) - (out is None)))
        levels.append(_vertex_level(p, fixed, combos, tuple_getter([at[e] for e in v.inputs]),
                                    out))
    return list(map(tuple_getter([at[e] for e in sorted(shape.edges)]
                                 + list(op_at.values())), grow(levels)))


def _vertex_level(p: FiniteOperad, fixed, combos: list[tuple], ins, out: int | None):
    """The `labellings` level of one vertex: colours of its free edges, then
    an operation, listed once per colouring `fixed(t)` of its other edges;
    `out` is the output's position, or None if `combos` leave it free."""
    extensions: dict[tuple, list[tuple]] = {}

    def level(t: tuple) -> list[tuple]:
        ext = extensions.get(fixed(t))
        if ext is None:
            ext = extensions[fixed(t)] = (
                [combo + (op,) for combo in combos for s in [t + combo]
                 for op in p.operations(ins(s), s[out])] if out is not None else
                [combo + (c, op) for combo in combos
                 for c, ops in p.operations_from(ins(t + combo)) for op in ops])
        return ext
    return level


def count_dendrices(p: FiniteOperad, shape: Tree) -> int:
    """`len(labellings(p, shape))`, listing nothing: a product over the
    edges, from the leaves down.  Per colour, an edge counts the labellings
    of the subtree above it: 1 on a leaf, and below a vertex the sum, over
    the colourings of its inputs, of the operations of that profile times
    the product of the inputs' counts, read from `p.operations_from`."""
    above: dict[str, dict[str, int]] = {}     # edge -> colour -> labellings
    for e in reversed(walk_up(shape, [shape.root])[0]):
        v = shape.vertex_above(e)
        if v is None:
            above[e] = dict.fromkeys(p.colours, 1)
            continue
        n = above[e] = dict.fromkeys(p.colours, 0)
        for ins in itertools.product(p.colours, repeat=len(v.inputs)):
            below = math.prod(above[i][c] for i, c in zip(v.inputs, ins))
            if below:
                for c, ops in p.operations_from(ins):
                    n[c] += below * len(ops)
    return sum(above[shape.root].values())


def simplex_counts(p: FiniteOperad, max_dim: int) -> list[int]:
    """`count_dendrices(p, linear(k))` for k = 0..max_dim in one sweep: per
    colour of its root, the labellings of `linear(k)` give those of
    `linear(k + 1)`, one unary vertex lower, through the unary operations,
    read once from `p.operations_from`."""
    unary = {c: [(d, len(ops)) for d, ops in p.operations_from((c,))] for c in p.colours}
    above = dict.fromkeys(p.colours, 1)
    counts = [sum(above.values())]
    for _ in range(max_dim):
        below = dict.fromkeys(p.colours, 0)
        for c, n in above.items():
            for d, k in unary[c]:
                below[d] += n * k
        above = below
        counts.append(sum(above.values()))
    return counts


def dendrices_with_colours(p: FiniteOperad, shape: Tree) -> list[Dendrex]:
    """All dendrices of the shape, as `Dendrex` objects in `labellings`
    order."""
    edges, outs = sorted(shape.edges), [v.output for v in shape.vertices]
    return [Dendrex(shape, dict(zip(edges, t)), dict(zip(outs, t[len(edges):])))
            for t in labellings(p, shape)]


def dendrices(p: FiniteOperad, shape: Tree) -> list[Dendrex]:
    """All dendrices of the given shape, sorted by colouring and operations."""
    return sorted(dendrices_with_colours(p, shape),
                  key=lambda d: sorted(d.edge_colours.items())
                  + [str(sorted(map(str, d.vertex_ops.items())))])


def face_of(p: FiniteOperad, d: Dendrex, f: FaceDescriptor) -> Dendrex:
    """Restrict the dendrex along a codimension-one face of its shape."""
    sub = f.subtree
    if f.kind == COROLLA_FACE:
        return Dendrex(sub, {f.label: d.edge_colours[f.label]}, {})
    if f.kind in (TOP_FACE, ROOT_FACE):
        cols = {e: d.edge_colours[e] for e in sub.edges}
        ops = {v.output: d.vertex_ops[v.output] for v in sub.vertices}
        return Dendrex(sub, cols, ops)
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
        return Dendrex(sub, cols, ops)
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
    """One node of a compiled complex: a cell, its ids and its join plan."""

    __slots__ = ("shape", "edges", "outs", "slots", "ids", "join", "groups")

    def __init__(self, shape: Tree, slots: tuple[int, ...], ids: range):
        self.shape = shape
        self.edges = tuple(sorted(shape.edges))
        self.outs = tuple([v.output for v in shape.vertices])
        self.slots = slots             # the cells of its closure, ascending
        self.ids = ids                 # its `labellings`, in their order, as consecutive ids
        self.join: tuple = ()          # (pick, repeated, first): see CompiledShape.close
        self.groups: dict[tuple, dict] = {}


class CompiledShape:
    """A `Complex` compiled for one operad: every dendrex of every cell is an
    int.

    Node i is cell i of `cells`; its slots are the indices of its closure
    mask, ascending.  One pass over the cells in order, faces first, gives
    each node its `labellings` tuples as consecutive ids, unique across the
    complex (two ids are equal exactly when the `Dendrex` objects are), and
    per face, in `cells.face_lists` order, a column of `restrictions`
    (`face_of` on ids): the face's id of the index map `pick` of each tuple,
    on an inner face with the one `compose` at the face's site appended for
    the lower operation.  A node's join plan reads a dendrex's closure off
    its faces' closures; `close` fills `closures` (`dendrex_closure` on ids)
    on demand, and `kan_report` never closes a tree's top cell, its largest.
    `face_of`, `dendrex_closure` and `Dendrex` stay the reference they are
    tested against.  Every cache lives here, as long as the caller keeps
    the compiled complex.
    """

    def __init__(self, p: FiniteOperad, cells: Complex):
        self.p = p
        self.cells = cells
        self.interned: list[tuple] = []   # id -> (its node's slot, its `labellings` tuple)
        self.restrictions: list[tuple[int, ...]] = []   # id -> ids of its faces
        self.closures: dict[int, tuple[int, ...] | None] = {}  # id -> ids per slot
        self.nodes: list[_Subface] = []
        index: list[dict[tuple, int]] = []   # per node: `labellings` tuple -> id
        compose = p.compose
        for slot, t in enumerate(cells.cell_trees):
            keys, start = labellings(p, t), len(self.interned)
            node = _Subface(t, tuple(cells.indices(cells.masks[slot])),
                            range(start, start + len(keys)))
            self.nodes.append(node)
            self.interned.extend((slot, key) for key in keys)
            index.append(dict(zip(keys, node.ids)))
            colour_at = {e: k for k, e in enumerate(node.edges)}
            op_at = {o: k for k, o in enumerate(node.outs, len(node.edges))}
            columns = []
            for f, j in zip(cells.face_lists[slot], cells.face_ids[slot]):
                child, ids, at = self.nodes[j], index[j], op_at
                if f.kind == INNER_FACE:
                    upper, lower = t.vertex_above(f.label), t.vertex_below(f.label)
                    lo, up = op_at[lower.output], op_at[upper.output]
                    i = lower.inputs.index(f.label)
                    # the composite, appended to the tuple, stands for the lower operation
                    at = {**op_at, lower.output: len(node.edges) + len(node.outs)}
                pick = tuple_getter([colour_at[e] for e in child.edges]
                                    + [at[o] for o in child.outs])
                if f.kind != INNER_FACE:
                    columns.append([ids[pick(key)] for key in keys])
                    continue
                column = [ids.get(pick(key + (compose(key[lo], i, key[up]),))) for key in keys]
                if None in column:     # a table whose composite has another profile
                    key = keys[column.index(None)]
                    raise ValueError(f"face {f.key} of {t}: composite "
                                     f"{compose(key[lo], i, key[up])!r} does not have "
                                     f"the profile of the merged vertex")
                columns.append(column)
            self.restrictions.extend(zip(*columns) if columns else [()] * len(keys))
            cat = [slot] + [s for j in cells.face_ids[slot] for s in self.nodes[j].slots]
            first = {s: at for at, s in reversed(list(enumerate(cat)))}   # each slot's first
            repeated = [at for at, s in enumerate(cat) if first[s] != at]
            node.join = (tuple_getter([first[s] for s in node.slots]), tuple_getter(repeated),
                         tuple_getter([first[cat[at]] for at in repeated]))

    def dendrex(self, i: int) -> Dendrex:
        """The `Dendrex` with id i."""
        slot, key = self.interned[i]
        node = self.nodes[slot]
        return Dendrex(node.shape, dict(zip(node.edges, key)),
                                  dict(zip(node.outs, key[len(node.edges):])))

    def close(self, node: _Subface) -> None:
        """Closes each cell of the node's closure not closed yet, whole and
        in ascending slot order, so faces come first.  An id's closure is
        one id per slot of its node's `slots`, or None exactly where
        `dendrex_closure` raises `ValueError`: `(i,)` and the faces'
        closures laid end to end hold every slot at least once, the join
        plan's `pick` takes each slot's first occurrence, and the closures
        agree iff each `repeated` position equals its `first` one.  Every
        path of `dendrex_closure` passes through a face, so a conflict on
        that walk is a missing or disagreeing face closure.
        """
        restrictions, closures = self.restrictions, self.closures
        for s in node.slots:
            cell = self.nodes[s]
            if not cell.ids or cell.ids[0] in closures:    # nothing to close, or closed
                continue
            pick, repeated, first = cell.join
            for i in cell.ids:
                parts = [closures[k] for k in restrictions[i]]
                closures[i] = None
                if None not in parts:
                    cat = (i,) + tuple(itertools.chain.from_iterable(parts))
                    if repeated(cat) == first(cat):
                        closures[i] = pick(cat)

    def groups(self, node: _Subface, shared: tuple[int, ...],
               new: tuple[int, ...]) -> dict[tuple, list[tuple]]:
        """The node's dendrices that have a closure, by their closure's ids
        at the positions `shared` of `node.slots`: each key lists their ids
        at the positions `new`, in `labellings` order; memoised per
        (shared, new)."""
        got = node.groups.get((shared, new))
        if got is None:
            self.close(node)
            got = node.groups[shared, new] = {}
            at_shared, at_new = tuple_getter(shared), tuple_getter(new)
            for clo in map(self.closures.__getitem__, node.ids):
                if clo is not None:
                    got.setdefault(at_shared(clo), []).append(at_new(clo))
        return got


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
