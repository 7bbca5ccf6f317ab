"""Decision procedures for Kan conditions on nerves of finite operads.

A horn map is a compatible family of dendrices on all faces of a tree but
one; a filler is a dendrex of the whole tree restricting to the family.
`kan_report` runs the exhaustive check over all tree shapes up to a vertex
bound (and an arity cap, without which the shape family is infinite).

Each tree shape is compiled once per report (`nerves.CompiledShape`): the
`nerves.labellings` of the tree and of its iterated faces become ints, with
memoised restrictions and closures, each closure joined from its faces'
by a plan compiled per iterated face.  The iterated faces are the cells of
`Complex([tree])` and a slot is a cell index, so nothing here numbers them
a second time.  One enumerator, `_horn_maps`, backtracks over those ints;
`kan_report` counts fillers by tuples of ids and builds `HornMap` objects
only for witnesses, and `enumerate_horn_maps` builds one for every map.
`fillers`, `face_of`, `dendrex_closure` and `Dendrex` are the reference
oracle the tests compare the compiled path against.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

from .nerves import PENDING, CompiledShape, Dendrex, dendrices, face_of, tuple_getter
from .nerves import dendrices_with_colours  # noqa: F401  (perfbench traces this binding)
from .operads import FiniteOperad
from .trees import FaceDescriptor, HornSpec, Tree, Vertex, classify_horn, faces


@dataclass(frozen=True)
class HornMap:
    """A map from a horn into the nerve: a dendrex per non-omitted face."""
    horn: HornSpec
    assignment: tuple[tuple[tuple[str, str], Dendrex], ...]   # (face key, dendrex)

    def face_dendrex(self, key: tuple[str, str]) -> Dendrex:
        return dict(self.assignment)[key]


def _kept_faces(tree: Tree, omitted: FaceDescriptor):
    """The faces of the tree but the omitted one, in `faces` order, and the
    order in which horn maps choose them: largest first, then by key."""
    kept = [f for f in faces(tree) if f != omitted]
    order = sorted(range(len(kept)),
                   key=lambda i: (-len(kept[i].subtree.edges), kept[i].key))
    return kept, order


def _horn_maps(shape: CompiledShape, omitted: FaceDescriptor, visit) -> None:
    """The horn-map enumerator: backtracking over the kept faces, largest
    first, it calls `visit(chosen)` once per horn map, where `chosen[i]` is
    the id of the dendrex on kept face i (`faces` order).  `chosen` is
    reused between calls.

    A candidate joins the partial family when its closure exists and agrees
    with the closures already chosen on every shared slot, which decides
    compatibility on all shared subtrees.  Which slots are shared at each
    depth does not depend on the choices, so `merged` holds each slot at a
    position fixed for the horn, the slots a depth adds being contiguous;
    a depth reads the colours of its fixed edges and its shared slots from
    it and writes its new slots into it, with nothing to undo.
    """
    kept, order = _kept_faces(shape.top.shape, omitted)
    index = shape.cells.index    # edge set -> slot
    at: dict[int, int] = {}      # slot -> position in merged
    steps = []
    for i in order:
        node = shape.node(kept[i].subtree)
        fixed = tuple(e for e in node.edges if index[frozenset([e])] in at)
        shared = [k for k, s in enumerate(node.slots) if s in at]
        new = [k for k, s in enumerate(node.slots) if s not in at]
        start = len(at)
        steps.append((i, node, fixed,
                      tuple_getter([at[index[frozenset([e])]] for e in fixed]),
                      tuple_getter(shared), tuple_getter([at[node.slots[k]] for k in shared]),
                      tuple_getter(new), start, start + len(new)))
        at.update((node.slots[k], start + n) for n, k in enumerate(new))
    groups: list[dict | None] = [None] * len(steps)
    merged: list = [None] * len(at)
    chosen: list = [None] * len(kept)
    values, closures, closure = shape.values, shape.closures, shape.closure
    last = len(steps) - 1

    def extend(depth: int):
        i, node, fixed, fixed_at, shared, shared_at, new, start, stop = steps[depth]
        found = groups[depth]
        if found is None:
            found = groups[depth] = shape.candidates(node, fixed)
        want = shared_at(merged)
        for d in found.get(tuple([values[m][0][0] for m in fixed_at(merged)]), ()):
            clo = closures[d]
            if clo is PENDING:
                clo = closure(d)
            if clo is not None and shared(clo) == want:
                chosen[i] = d
                if depth == last:
                    visit(chosen)
                else:
                    merged[start:stop] = new(clo)
                    extend(depth + 1)

    if steps:
        extend(0)
    else:
        visit(chosen)


def _horn_map(shape: CompiledShape, h: HornSpec, chosen) -> HornMap:
    kept, order = _kept_faces(h.tree, h.omitted)
    return HornMap(h, tuple((kept[i].key, shape.dendrex(chosen[i])) for i in order))


def enumerate_horn_maps(p: FiniteOperad, h: HornSpec) -> list[HornMap]:
    """All horn maps into the nerve, in the order of the enumerator that
    `kan_report` runs, each built as a `HornMap`."""
    shape = CompiledShape(p, h.tree)
    out: list[HornMap] = []
    _horn_maps(shape, h.omitted, lambda chosen: out.append(_horn_map(shape, h, chosen)))
    return out


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
    """Filler existence/uniqueness over all horns of bounded tree shapes."""
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

    @lru_cache(maxsize=None)
    def shapes(n: int) -> tuple[tuple, ...]:
        # canonical keys of rooted shapes with exactly n vertices
        if n == 0:
            return ((),)
        out = set()
        for arity in range(1, max_arity + 1):
            for split in _compositions(n - 1, arity):
                for combo in itertools.product(*[shapes(k) for k in split]):
                    out.add(tuple(sorted(combo)))
        return tuple(sorted(out))

    trees = []
    for n in range(1, max_vertices + 1):
        for key in shapes(n):
            if key:
                trees.append(_tree_from_key(key))
    return trees


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _tree_from_key(key) -> Tree:
    counter = itertools.count()
    vertices: list[Vertex] = []

    def build(k, out_edge: str):
        if not k:
            return
        ins = tuple(f"e{next(counter)}" for _ in k)
        vertices.append(Vertex(ins, out_edge))
        for sub, e in zip(k, ins):
            build(sub, e)

    root = f"e{next(counter)}"
    build(key, root)
    return Tree(tuple(vertices), root)


def kan_report(p: FiniteOperad, max_vertices: int, max_arity: int = 3,
               name: str | None = None) -> KanReport:
    rep = KanReport(operad_name=name or getattr(p, "name", "operad"),
                    max_vertices=max_vertices, max_arity=max_arity,
                    inner_kan=True, dendroidal_kan=True, fully_kan=True,
                    strict=True, fully_unique=True)
    for tree in tree_shapes(max_vertices, max_arity):
        shape = CompiledShape(p, tree)
        sigs = [shape.restrictions(i) for i in shape.dendrices(shape.top)]
        for j, f in enumerate(faces(tree)):
            h = HornSpec(tree, f)
            cls = classify_horn(h)
            buckets = Counter(sig[:j] + sig[j + 1:] for sig in sigs)

            def visit(chosen):
                rep.horns_checked += 1
                n = buckets.get(tuple(chosen), 0)
                if n == 0:
                    rep.fully_kan = False
                    if cls != "root":
                        rep.dendroidal_kan = False
                    if cls == "inner":
                        rep.inner_kan = False
                    rep.witnesses.append(HornWitness(tree, f.key, cls, "unfillable",
                                                     _horn_map(shape, h, chosen), 0))
                elif n > 1:
                    rep.fully_unique = False
                    if len(tree.vertices) > 1:
                        rep.strict = False
                    rep.witnesses.append(HornWitness(tree, f.key, cls, "non_unique",
                                                     _horn_map(shape, h, chosen), n))

            _horn_maps(shape, f, visit)
    return rep
