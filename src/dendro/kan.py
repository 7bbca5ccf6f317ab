"""Decision procedures for Kan conditions on nerves of finite operads.

A horn map is a compatible family of dendrices on all faces of a tree but
one; a filler is a dendrex of the whole tree restricting to the family.
`kan_report` runs the exhaustive check over all tree shapes up to a vertex
bound (and an arity cap, without which the shape family is infinite).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from .nerves import (Dendrex, dendrex_closure, dendrices, dendrices_with_colours,
                     face_of)
from .operads import FiniteOperad
from .trees import HornSpec, Tree, Vertex, classify_horn, faces, horn


@dataclass(frozen=True)
class HornMap:
    """A map from a horn into the nerve: a dendrex per non-omitted face."""
    horn: HornSpec
    assignment: tuple[tuple[tuple[str, str], Dendrex], ...]   # (face key, dendrex)

    def face_dendrex(self, key: tuple[str, str]) -> Dendrex:
        return dict(self.assignment)[key]


def enumerate_horn_maps(p: FiniteOperad, h: HornSpec,
                        closure_cache: dict | None = None,
                        candidate_cache: dict | None = None) -> list[HornMap]:
    """All horn maps into the nerve, by backtracking over the faces.

    A partial family is kept only if the closures of its members merge
    consistently, which decides compatibility on all shared subtrees.
    The optional caches memoize dendrex closures and per-face candidate
    lists across calls (safe to share between horns of the same tree).
    """
    kept = [f for f in faces(h.tree) if f != h.omitted]
    kept.sort(key=lambda f: (-len(f.subtree.edges), f.key))
    out: list[HornMap] = []
    cache = closure_cache if closure_cache is not None else {}
    cands = candidate_cache if candidate_cache is not None else {}

    def candidates(subtree: Tree, fixed: dict[str, str]) -> list[Dendrex]:
        key = (subtree, tuple(sorted(fixed.items())))
        got = cands.get(key)
        if got is None:
            got = dendrices_with_colours(p, subtree, fixed)
            cands[key] = got
        return got

    def closure_of(d: Dendrex):
        clo = cache.get(d)
        if clo is None:
            try:
                clo = dendrex_closure(p, d)
            except ValueError:
                clo = ValueError
            cache[d] = clo
        return clo

    singles = {e: frozenset([e]) for e in h.tree.edges}
    merged: dict = {}

    def extend(i: int, chosen: list):
        if i == len(kept):
            out.append(HornMap(h, tuple((f.key, d) for f, d in chosen)))
            return
        f = kept[i]
        fixed = {}
        for e in f.subtree.edges:
            got = merged.get(singles[e])
            if got is not None:
                fixed[e] = got.edge_colours[e]
        for d in candidates(f.subtree, fixed):
            clo = closure_of(d)
            if clo is ValueError:
                continue
            added = []
            ok = True
            for k, v in clo.items():
                prev = merged.get(k)
                if prev is None:
                    merged[k] = v
                    added.append(k)
                elif prev != v:
                    ok = False
                    break
            if ok:
                chosen.append((f, d))
                extend(i + 1, chosen)
                chosen.pop()
            for k in added:
                del merged[k]

    extend(0, [])
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
        all_dx = dendrices(p, tree)
        all_faces = faces(tree)
        full_sigs = [tuple(face_of(p, d, g) for g in all_faces) for d in all_dx]
        closure_cache: dict = {}
        candidate_cache: dict = {}
        for j, f in enumerate(all_faces):
            h = horn(tree, f)
            cls = classify_horn(h)
            kept = all_faces[:j] + all_faces[j + 1:]
            buckets: dict[tuple, int] = {}
            for sig in full_sigs:
                key = sig[:j] + sig[j + 1:]
                buckets[key] = buckets.get(key, 0) + 1
            for m in enumerate_horn_maps(p, h, closure_cache, candidate_cache):
                rep.horns_checked += 1
                assigned = dict(m.assignment)
                n = buckets.get(tuple(assigned[g.key] for g in kept), 0)
                if n == 0:
                    rep.fully_kan = False
                    if cls != "root":
                        rep.dendroidal_kan = False
                    if cls == "inner":
                        rep.inner_kan = False
                    rep.witnesses.append(HornWitness(tree, f.key, cls, "unfillable", m, 0))
                elif n > 1:
                    rep.fully_unique = False
                    if len(tree.vertices) > 1:
                        rep.strict = False
                    rep.witnesses.append(HornWitness(tree, f.key, cls, "non_unique", m, n))
    return rep
