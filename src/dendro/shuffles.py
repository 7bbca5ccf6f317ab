"""Shuffles of a tree against a linear tree, and their cell complexes.

The tensor of a tree S with the linear tree of length n decomposes into
shuffles: trees on edges (e, i) with e an edge of S and i a level in 0..n,
written "e_i".  The shuffles are in bijection with the level maps: the maps
from the vertices of S to 0..n that weakly increase towards the root.  The
shuffle of a level map (`shuffle`) has each S-vertex v with output e at
its level i, with inputs (f, i) and output (e, i); each edge then climbs by
unary level vertices from the level of the vertex above it (0 for a leaf)
to the level of the vertex below it (n for the root).  Its edge set gives
back the level map, so distinct level maps give distinct shuffles.
"""

from __future__ import annotations

from .complexes import Complex, Subcomplex
from .nerves import grow
from .trees import Tree, TreeError, Vertex, c2, insert_unary, walk_up


def pair(edge: str, level: int) -> str:
    return f"{edge}_{level}"


def _check_level(k: int, n: int) -> None:
    if not 0 <= k <= n:
        raise TreeError(f"level {k} out of range 0..{n}")


def shuffle(s: Tree, n: int, level: dict[str, int]) -> Tree:
    """The shuffle of S with the length-n linear tree whose S-vertex with
    output e sits at level[e].  A level map that decreases towards the root
    spans no tree (TreeError)."""
    for k in level.values():
        _check_level(k, n)
    vs = [Vertex(tuple(pair(f, level[v.output]) for f in v.inputs), pair(v.output, level[v.output]))
          for v in s.vertices]
    for e in s.edges:
        below = s.vertex_below(e)
        lo = level[e] if s.vertex_above(e) is not None else 0
        hi = level[below.output] if below is not None else n
        vs += [Vertex((pair(e, i),), pair(e, i + 1)) for i in range(lo, hi)]
    return Tree(vs, pair(s.root, n))


def shuffles(s: Tree, n: int) -> list[Tree]:
    """All shuffles of S with the linear tree of length n, sorted by edge
    set: one per level map, listed root-first, each vertex at every level
    from 0 to the level of the vertex below it (n below the root)."""
    outs = [e for e in walk_up(s, [s.root])[0] if s.vertex_above(e) is not None]
    at = {e: k + 1 for k, e in enumerate(outs)}   # position 0 holds n, below the root
    caps = [at[s.vertex_below(e).output] if e != s.root else 0 for e in outs]
    maps = grow([lambda t: [(n,)]]
                + [lambda t, c=c: [(i,) for i in range(t[c] + 1)] for c in caps])
    return sorted((shuffle(s, n, dict(zip(outs, m[1:]))) for m in maps),
                  key=lambda t: sorted(t.edges))


def tensor_complex(s: Tree, n: int) -> Complex:
    """The cell complex of the tensor of S with the length-n linear tree."""
    return Complex(shuffles(s, n))


# ---------------------------------------------------------------------------
# the binary-corolla tensor: named shuffles and cells
# ---------------------------------------------------------------------------

def c2_shuffle(n: int, k: int) -> Tree:
    """T_k: the shuffle of the binary corolla (leaves a, b, root c) with the
    length-n linear tree whose corolla vertex sits at level k; edges
    a_0..a_k, b_0..b_k, c_k..c_n."""
    return shuffle(c2(), n, {"c": k})


def c2_tensor_complex(n: int) -> Complex:
    return tensor_complex(c2(), n)


def named_cell(ambient: Complex, kind: str, n: int, i: int = 0, j: int = 0) -> Tree:
    """Distinguished cells of the binary-corolla tensor complex.

    kinds: pi (i in 0..n), alpha, beta, gamma, d (the face D_i T_j), and
    sigma_alpha (the degeneracy of alpha at a_j -- returned as the shape of
    the degenerate dendrex; it is not a cell of the complex).  Levels i and
    j outside 0..n raise TreeError, and so do pi_n, alpha, beta and
    sigma_alpha at n = 0: they hold the edges b_{n-1} and c_{n-1}, so they
    need n >= 1.
    """
    _check_level(i, n)
    _check_level(j, n)
    if n < 1 and kind in ("pi", "alpha", "beta", "sigma_alpha"):
        raise TreeError(f"named cell {kind} needs n >= 1, got n = {n}")
    a, b, c = ([pair(x, t) for t in range(n + 1)] for x in "abc")
    if kind == "pi":
        if i < n:
            es = {b[n], c[n]} | {a[t] for t in range(n + 1) if t != i}
        else:
            es = set(a[:n]) | {b[n - 1], c[n - 1]}
    elif kind == "alpha":
        es = set(a[:n]) | {b[n - 1], b[n], c[n]}
    elif kind == "beta":
        es = set(a[:n]) | {b[n - 1], c[n - 1], c[n]}
    elif kind == "gamma":
        es = set(a) | {b[n], c[n]}
    elif kind == "d":
        if i == j:
            raise TreeError("D_i T_j needs i != j")
        es = set(c2_shuffle(n, j).edges) - ({a[i], b[i]} if i < j else {c[i]})
    elif kind == "sigma_alpha":
        return insert_unary(named_cell(ambient, "alpha", n), a[j], a[j] + "*")
    else:
        raise TreeError(f"unknown named cell kind {kind!r}")
    return ambient.tree_of(frozenset(es))


def filtration_base(n: int) -> Subcomplex:
    """The starting subcomplex of the inner-anodyne filtration of the
    binary-corolla tensor: the closures of the faces D_i T_j for all j and
    i != j, together with the two linear chains on the a- and c-edges."""
    amb = c2_tensor_complex(n)
    cells = [named_cell(amb, "d", n, i, j).edges
             for j in range(n + 1) for i in range(n + 1) if i != j]
    cells += [frozenset(pair(x, t) for t in range(n + 1)) for x in "ac"]
    return amb.closure_subcomplex(cells)
