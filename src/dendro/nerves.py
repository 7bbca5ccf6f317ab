"""Dendrices of the nerve of a finite operad.

A dendrex of shape T is a colouring of the edges of T together with an
operation for each vertex whose profile matches the colours of its attached
edges.  Faces compose or restrict; degeneracies insert identity-labelled
unary vertices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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


def dendrices_with_colours(p: FiniteOperad, shape: Tree,
                           fixed: dict[str, str]) -> list[Dendrex]:
    """Dendrices whose colouring extends the given partial one, by
    backtracking over the vertices in order of their output edges."""
    if not shape.vertices:
        e = shape.root
        colours = [fixed[e]] if e in fixed else list(p.colours)
        return [Dendrex._unchecked(shape, {e: c}, {}) for c in colours]
    out: list[Dendrex] = []
    order = sorted(shape.vertices, key=lambda v: v.output)

    def extend(i: int, colours: dict[str, str], ops: dict):
        if i == len(order):
            out.append(Dendrex._unchecked(shape, dict(colours), dict(ops)))
            return
        v = order[i]
        free = [e for e in v.inputs + (v.output,) if e not in colours]
        for combo in itertools.product(p.colours, repeat=len(free)):
            trial = dict(colours)
            trial.update(zip(free, combo))
            for op in p.operations(tuple(trial[e] for e in v.inputs), trial[v.output]):
                ops[v.output] = op
                extend(i + 1, trial, ops)
            ops.pop(v.output, None)

    extend(0, dict(fixed), {})
    return out


def dendrices(p: FiniteOperad, shape: Tree) -> list[Dendrex]:
    """All dendrices of the given shape, sorted by colouring and operations."""
    return sorted(dendrices_with_colours(p, shape, {}),
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
    face_maps: dict[tuple[int, int, Dendrex], Dendrex]

    def counts(self) -> dict[int, int]:
        return {k: len(v) for k, v in self.simplices.items()}


def underlying_sset(p: FiniteOperad, max_dim: int) -> SimplicialSetTable:
    """Simplices of dimension k are the dendrices of the linear tree with k
    vertices; face i contracts edge i (composes) or drops an end."""
    simplices: dict[int, tuple[Dendrex, ...]] = {}
    face_maps: dict[tuple[int, int, Dendrex], Dendrex] = {}
    for k in range(max_dim + 1):
        shape = linear(k)
        simplices[k] = tuple(dendrices(p, shape))
    for k in range(1, max_dim + 1):
        shape = linear(k)
        fs = {f.key: f for f in faces(shape)}
        for d in simplices[k]:
            for i in range(k + 1):
                if k == 1:
                    f = fs[(COROLLA_FACE, str(1 - i))]
                elif i == 0:
                    f = fs[(TOP_FACE, "1")]
                elif i == k:
                    f = fs[(ROOT_FACE, str(k))]
                else:
                    f = fs[(INNER_FACE, str(i))]
                face_maps[(k, i, d)] = face_of(p, d, f)
    return SimplicialSetTable(simplices=simplices, face_maps=face_maps)
