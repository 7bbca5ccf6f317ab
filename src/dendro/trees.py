"""Finite rooted trees with named edges: faces, horns, grafting, canonical forms.

Edges point towards the root: every vertex has an ordered tuple of input
edges (above it) and a single output edge (below it).  The tree eta has a
single edge and no vertices.  A tree checks its vertices in the order
given and keeps them sorted by output edge, as its faces do: vertex order
carries no information.  Input order is presentation-only; equality and
isomorphism quotient by reordering, but faces keep the order they are
given.  So trees written alike, (root, vertices), share their face trees
and face lists while one of them is alive (`faces`).

A face's edge set is computed from its tree's before the face is built: an
inner face drops its edge, a top face the inputs of its vertex, the root
face the root and the root vertex's other inputs, and a colour face is its
one edge.  Faces are built unchecked.

`Vertex` and `FaceDescriptor` are named tuples: each hashes, compares and
prints as the tuple of its fields, so building, hashing and comparing them
runs in C.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from operator import attrgetter
from typing import Container, Iterable, NamedTuple


class TreeError(ValueError):
    """Raised for malformed trees or invalid tree operations."""


class Vertex(NamedTuple):
    inputs: tuple[str, ...]
    output: str

    @property
    def arity(self) -> int:
        return len(self.inputs)


class Tree:
    """A finite rooted tree with pairwise distinct edge names."""

    __slots__ = ("vertices", "root", "_above", "_below", "edges", "_faces", "__weakref__")

    def __init__(self, vertices: Iterable[Vertex], root: str):
        vertices = tuple(vertices)
        above, below, edges = set(), set(), {root}
        for v in vertices:
            if v.output in above:
                raise TreeError(f"edge {v.output!r} is the output of two vertices")
            above.add(v.output)
            edges.add(v.output)
            for e in v.inputs:
                if e in below:
                    raise TreeError(f"edge {e!r} is the input of two vertices")
                below.add(e)
                edges.add(e)
        if root in below:
            raise TreeError(f"root {root!r} is the input of a vertex")
        for e in edges:
            if e != root and e not in below:
                raise TreeError(f"edge {e!r} is attached to no vertex below and is not the root")
        self._fill(tuple(sorted(vertices, key=attrgetter("output"))), root, frozenset(edges))
        seen = set(walk_up(self, [root])[0])
        if seen != edges:
            raise TreeError(f"disconnected edges: {sorted(edges - seen)}")

    @classmethod
    def _unchecked(cls, vertices: tuple[Vertex, ...], root: str,
                   edges: frozenset[str]) -> "Tree":
        """Internal fast path for faces of a checked tree: no validation; it
        trusts the vertices to be sorted by output and takes the edge set."""
        t = object.__new__(cls)
        t._fill(vertices, root, edges)
        return t

    def _fill(self, vertices: tuple[Vertex, ...], root: str, edges: frozenset[str]) -> None:
        above = {v.output: v for v in vertices}
        below = {e: v for v in vertices for e in v.inputs}
        for name, value in (("vertices", vertices), ("root", root), ("_above", above),
                            ("_below", below), ("edges", edges), ("_faces", None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Tree is immutable")

    # -- basic queries ------------------------------------------------------

    def vertex_above(self, edge: str) -> Vertex | None:
        return self._above.get(edge)

    def vertex_below(self, edge: str) -> Vertex | None:
        return self._below.get(edge)

    @property
    def leaves(self) -> frozenset[str]:
        return frozenset(e for e in self.edges if e not in self._above)

    @property
    def inner_edges(self) -> frozenset[str]:
        return frozenset(e for e in self.edges if e in self._above and e in self._below)

    # -- equality up to input reordering -----------------------------------

    def _normal(self):
        return self.root, tuple([(frozenset(v.inputs), v.output) for v in self.vertices])

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Tree):
            return NotImplemented
        return self._normal() == other._normal()

    def __hash__(self):
        return hash(self._normal())

    def __repr__(self):
        if not self.vertices:
            return f"Tree(eta {self.root!r})"
        vs = ", ".join(f"({','.join(v.inputs)})->{v.output}" for v in self.vertices)
        return f"Tree([{vs}], root={self.root!r})"

    # -- canonical form / isomorphism --------------------------------------

    def canonical_key(self):
        """Shape invariant: equal keys iff the trees are isomorphic."""
        return self._branch_words(self.root)[self.root]

    def _branch_words(self, edge: str) -> dict[str, str]:
        """The shape of the branch above each edge from `edge` up as a word:
        "." for a leaf, and for a vertex the words of its inputs, sorted, in
        parentheses.  A word ends where its first parenthesis closes, so
        equal words mean isomorphic branches; built bottom-up."""
        above = self._above
        words: dict[str, str] = {}
        for e in reversed(walk_up(self, [edge])[0]):    # inputs before their vertex
            v = above.get(e)
            words[e] = ("." if v is None
                        else "(" + "".join(sorted(words[f] for f in v.inputs)) + ")")
        return words


ETA_EDGE = "e"


def eta(edge: str = ETA_EDGE) -> Tree:
    return Tree((), edge)


def corolla(n: int, leaves: Iterable[str] | None = None, root: str = "r") -> Tree:
    if n < 0:
        raise TreeError("corolla arity must be >= 0")
    leaves = tuple(leaves) if leaves is not None else tuple(f"l_{i}" for i in range(1, n + 1))
    if len(leaves) != n:
        raise TreeError(f"expected {n} leaf names, got {len(leaves)}")
    return Tree((Vertex(leaves, root),), root)


def linear(n: int, edges: Iterable[str] | None = None) -> Tree:
    """The linear tree with n unary vertices; edge i is the input of the
    vertex with output i+1, edge n is the root."""
    if n < 0:
        raise TreeError("linear length must be >= 0")
    names = tuple(edges) if edges is not None else tuple(str(i) for i in range(n + 1))
    if len(names) != n + 1:
        raise TreeError(f"expected {n + 1} edge names, got {len(names)}")
    vs = tuple(Vertex((names[i],), names[i + 1]) for i in range(n))
    return Tree(vs, names[n])


def extended_corolla(n: int, k: int) -> Tree:
    """Unary chain a_0,...,a_n over a (k+1)-ary root vertex with extra
    leaves b_1..b_k and root c.  For n = 0 this is the (k+1)-corolla."""
    if n < 0 or k < 0:
        raise TreeError("extended corolla parameters must be >= 0")
    a = [f"a_{i}" for i in range(n + 1)]
    b = [f"b_{i}" for i in range(1, k + 1)]
    vs = [Vertex((a[i],), a[i + 1]) for i in range(n)]
    vs.append(Vertex(tuple([a[n]] + b), "c"))
    return Tree(tuple(vs), "c")


def build_standard(kind: str, *args: int) -> Tree:
    builders = {"eta": (eta, 0), "corolla": (corolla, 1), "linear": (linear, 1),
                "extended_corolla": (extended_corolla, 2)}
    if kind not in builders:
        raise TreeError(f"unknown standard tree kind {kind!r}")
    build, count = builders[kind]
    if len(args) != count:
        raise TreeError(f"{kind} takes {count} parameter{'' if count == 1 else 's'}, "
                        f"got {len(args)}")
    return build(*args)


def c2(a: str = "a", b: str = "b", c: str = "c") -> Tree:
    return corolla(2, leaves=(a, b), root=c)


# -- edge classification ----------------------------------------------------

ROOT = "Root"
LEAF = "Leaf"
INNER = "Inner"


def classify_edges(tree: Tree) -> dict[str, str]:
    """Map each edge to Root, Leaf or Inner.  For eta the single edge is
    reported as Root (it is also a leaf; see `Tree.leaves`)."""
    kinds = {}
    for e in tree.edges:
        if e == tree.root:
            kinds[e] = ROOT
        elif tree.vertex_above(e) is None:
            kinds[e] = LEAF
        else:
            kinds[e] = INNER
    return kinds


# -- faces ------------------------------------------------------------------

INNER_FACE = "inner"
TOP_FACE = "top"
ROOT_FACE = "root"
COROLLA_FACE = "colour"
FACE_KINDS = (INNER_FACE, TOP_FACE, ROOT_FACE, COROLLA_FACE)


class FaceDescriptor(NamedTuple):
    """A codimension-one face of a tree.

    kind is one of inner/top/root/colour; label is the contracted inner edge,
    the output edge of the removed vertex, or the kept colour for one-vertex
    trees.  subtree is the face itself.
    """
    kind: str
    label: str
    subtree: Tree

    @property
    def key(self) -> tuple[str, str]:
        return (self.kind, self.label)


# The tree as written, (root, vertices) -> a live tree written so.  `Tree`
# equality ignores input order, but faces follow it.
_LIVE_TREES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def faces(tree: Tree) -> list[FaceDescriptor]:
    """All codimension-one faces.  Raises for eta, which has none.  A tree
    keeps its list, and shares it with the live trees written alike."""
    out = tree._faces
    if out is None:
        twin = _LIVE_TREES.setdefault((tree.root, tree.vertices), tree)
        out = twin._faces
        if out is None:
            out = _faces_uncached(tree)
            object.__setattr__(twin, "_faces", out)
        object.__setattr__(tree, "_faces", out)
    return out


def _faces_uncached(tree: Tree) -> list[FaceDescriptor]:
    """The faces, each edge set computed from the tree's own: an inner face
    drops its edge, a top face the inputs of its vertex, the root face the
    root and the root vertex's other inputs; a colour face is its edge.
    An inner face puts the merged vertex in the place of the lower one, so
    faces keep the vertex order.  A face tree is the live tree written
    alike, if there is one."""
    vertices, root, edges = tree.vertices, tree.root, tree.edges
    if not vertices:
        raise TreeError("eta has no faces")

    def subtree(vs: tuple[Vertex, ...], sub_root: str, sub_edges: frozenset) -> Tree:
        key = sub_root, vs
        t = _LIVE_TREES.get(key)
        if t is None:
            t = _LIVE_TREES[key] = Tree._unchecked(vs, sub_root, sub_edges)
        return t

    if len(vertices) == 1:
        return [FaceDescriptor(COROLLA_FACE, e, subtree((), e, frozenset((e,))))
                for e in sorted(edges)]
    above, below = tree._above, tree._below
    out = []
    for e in sorted(above.keys() & below.keys()):       # the inner edges
        upper, lower = above[e], below[e]
        i = lower.inputs.index(e)
        merged = Vertex(lower.inputs[:i] + upper.inputs + lower.inputs[i + 1:], lower.output)
        vs = tuple([merged if v is lower else v for v in vertices if v is not upper])
        out.append(FaceDescriptor(INNER_FACE, e, subtree(vs, root, edges - {e})))
    for k, v in enumerate(vertices):
        if not _outer(v, root, above):
            continue
        if v.output != root:
            kind, sub_root, sub_edges = TOP_FACE, root, edges.difference(v.inputs)
        else:
            (sub_root,) = [e for e in v.inputs if e in above]
            kind, sub_edges = ROOT_FACE, edges.difference(v.inputs, (root,)) | {sub_root}
        out.append(FaceDescriptor(kind, v.output, subtree(vertices[:k] + vertices[k + 1:],
                                                          sub_root, sub_edges)))
    return out


def _outer(v: Vertex, root: str, above: dict[str, Vertex]) -> bool:
    """v has an outer face: its inputs are all leaves, or it is the root vertex
    on one inner input (in a tree of >= 2 vertices)."""
    if v.output != root:
        return above.keys().isdisjoint(v.inputs)
    return sum(e in above for e in v.inputs) == 1


def face_count(tree: Tree) -> int:
    """`len(faces(tree))`, on >= 2 vertices counted without building a face."""
    if len(tree.vertices) < 2:
        return len(faces(tree))
    above = tree._above
    return len(above.keys() & tree._below) + sum(_outer(v, tree.root, above)
                                                 for v in tree.vertices)


def face(tree: Tree, kind: str, label: str) -> FaceDescriptor:
    """The face with the key (kind, label).  Raises for eta and for a key
    that names no face."""
    for f in faces(tree):
        if f.kind == kind and f.label == label:
            return f
    raise TreeError(f"no face {(kind, label)} on cell {sorted(tree.edges)}")


# -- horns ------------------------------------------------------------------

@dataclass(frozen=True)
class HornSpec:
    tree: Tree
    omitted: FaceDescriptor


def horn(tree: Tree, omitted: FaceDescriptor) -> HornSpec:
    if omitted not in faces(tree):
        raise TreeError("omitted descriptor is not a face of the tree")
    return HornSpec(tree, omitted)


def classify_horn(h: HornSpec) -> str:
    """inner / leaf / root.  Leaf covers every non-root outer horn."""
    om = h.omitted
    if om.kind == INNER_FACE:
        return "inner"
    if om.kind == COROLLA_FACE:
        return "leaf" if om.label == h.tree.root else "root"
    return "root" if om.kind == ROOT_FACE else "leaf"


def has_root_horn(tree: Tree) -> bool:
    """True iff some horn of the tree is a root horn: the tree is a corolla
    or its root vertex has exactly one attached inner edge."""
    if not tree.vertices:
        return False
    if len(tree.vertices) == 1:
        return True
    return _outer(tree.vertex_above(tree.root), tree.root, tree._above)


def is_extended_corolla(tree: Tree) -> bool:
    """True iff every vertex except possibly the root vertex is unary."""
    root_vertex = tree.vertex_above(tree.root)
    return all(v.arity == 1 for v in tree.vertices if v is not root_vertex)


# -- grafting ---------------------------------------------------------------

def graft(lower: Tree, leaf: str, upper: Tree) -> Tree:
    """Identify the root of `upper` with the given leaf of `lower`."""
    if leaf not in lower.leaves:
        raise TreeError(f"{leaf!r} is not a leaf of the lower tree")
    renamed = {upper.root: leaf}
    clash = (upper.edges - {upper.root}) & lower.edges
    if clash:
        raise TreeError(f"edge name collision: {sorted(clash)}")
    vs = list(lower.vertices)
    for v in upper.vertices:
        vs.append(Vertex(tuple(renamed.get(e, e) for e in v.inputs),
                         renamed.get(v.output, v.output)))
    return Tree(tuple(vs), lower.root)


def insert_unary(tree: Tree, edge: str, fresh: str) -> Tree:
    """Duplicate `edge` by a unary vertex below it; the new lower copy is
    named `fresh`."""
    if fresh in tree.edges:
        raise TreeError(f"edge name {fresh!r} already used")
    vs = [Vertex(tuple(fresh if e == edge else e for e in v.inputs), v.output)
          if edge in v.inputs else v for v in tree.vertices]
    vs.append(Vertex((edge,), fresh))
    return Tree(tuple(vs), fresh if edge == tree.root else tree.root)


# -- isomorphism ------------------------------------------------------------

def isomorphic(s: Tree, t: Tree) -> bool:
    return s.canonical_key() == t.canonical_key()


def isomorphisms(s: Tree, t: Tree) -> list[dict[str, str]]:
    """All root-preserving incidence-preserving edge bijections s -> t, built
    bottom-up: for each pair of edges with equal branch words, reached from
    the roots, every matching of their inputs (`itertools.permutations`
    order), then every product of the inputs' bijections."""
    ws, wt = s._branch_words(s.root), t._branch_words(t.root)
    up_s, up_t = ({e: v.inputs for e, v in x._above.items()} for x in (s, t))
    pairs, todo = [], [(s.root, t.root)]
    while todo:                 # each pair after the pair below it
        a, b = todo.pop()
        if ws[a] == wt[b]:
            pairs.append((a, b))
            todo.extend(itertools.product(up_s.get(a, ()), up_t.get(b, ())))
    maps: dict[tuple[str, str], list[dict[str, str]]] = {}
    for a, b in reversed(pairs):
        ins, outs = up_s.get(a, ()), up_t.get(b, ())
        below = {xy: maps.pop(xy) for xy in itertools.product(ins, outs) if xy in maps}
        maps[a, b] = [dict(itertools.chain([(a, b)], *map(dict.items, combo)))
                      for perm in itertools.permutations(outs) for combo in
                      itertools.product(*[below.get(xy, ()) for xy in zip(ins, perm)])]
    return maps.get((s.root, t.root), [])


# -- walking up -------------------------------------------------------------

def walk_up(tree: Tree, starts: Iterable[str],
            stop: Container[str] = ()) -> tuple[list[str], bool]:
    """The edges reached going up from the start edges in planar pre-order,
    without passing an edge of `stop` (it is reached, the edges above it
    are not), and whether every branch ends in `stop` or at a vertex
    without inputs."""
    above = tree._above
    reached: list[str] = []
    capped = True
    todo = list(starts)[::-1]
    while todo:
        e = todo.pop()
        reached.append(e)
        if e in stop:
            continue
        v = above.get(e)
        if v is None:
            capped = False
        else:
            todo.extend(v.inputs[::-1])
    return reached, capped


def branch(tree: Tree, edge: str) -> Tree:
    """The subtree of everything above `edge`, rooted at it."""
    above = tree._above
    return Tree([above[e] for e in walk_up(tree, [edge])[0] if e in above], edge)


def subtree_from_edges(ambient: Tree, edge_set: Iterable[str]) -> Tree:
    """The subtree of `ambient` with exactly the given edges.

    A subtree is any iterated face of the ambient tree; it is determined by
    its edge set.  Raises TreeError if the edge set spans no subtree.
    """
    es = set(edge_set)
    if not es:
        raise TreeError("empty edge set")
    unknown = es - ambient.edges
    if unknown:
        raise TreeError(f"edges not in ambient tree: {sorted(unknown)}")
    vertices, uncapped = [], []
    for e in sorted(es):
        # the inputs of e: the edges of the set reached going up from e
        v = ambient.vertex_above(e)
        reached, capped = walk_up(ambient, v.inputs if v is not None else (), es)
        inputs = tuple(f for f in reached if f in es)
        if inputs:
            vertices.append(Vertex(inputs, e))
            if not capped:
                uncapped.append(e)
    roots = es.difference(*(v.inputs for v in vertices))
    if len(roots) != 1:
        raise TreeError(f"edge set has no unique root: {sorted(es)}")
    if uncapped:
        raise TreeError(f"edges do not span a subtree: branch above "
                        f"{uncapped[0]!r} is not capped")
    return Tree(tuple(vertices), roots.pop())


# -- stem -------------------------------------------------------------------

def stem_edges(tree: Tree) -> list[str]:
    """The maximal linear initial segment, listed top edge first, root last."""
    chain = [tree.root]
    while True:
        v = tree.vertex_above(chain[-1])
        if v is None or v.arity != 1:
            break
        chain.append(v.inputs[0])
    chain.reverse()
    return chain
