"""Shuffles of a tree against a linear tree, and their cell complexes.

The tensor of a tree S with the linear tree of length n decomposes into
shuffles: trees on edges (e, i) with e an edge of S and i a level in 0..n,
written "e_i".  All shuffles arise from the canonical one (S at level 0
above the full chain at the root) by percolation moves pushing S-vertices
down past level vertices.
"""

from __future__ import annotations

from .complexes import Complex, Subcomplex
from .trees import Tree, TreeError, Vertex, c2, insert_unary


def pair(edge: str, level: int) -> str:
    return f"{edge}_{level}"


def canonical_shuffle(s: Tree, n: int) -> Tree:
    """S at level 0 grafted over the chain (root,0) .. (root,n)."""
    vs = [Vertex(tuple(pair(e, 0) for e in v.inputs), pair(v.output, 0))
          for v in s.vertices]
    for i in range(n):
        vs.append(Vertex((pair(s.root, i),), pair(s.root, i + 1)))
    return Tree(tuple(vs), pair(s.root, n))


def _percolations(s: Tree, n: int, shuffle: Tree) -> list[Tree]:
    """All single percolation moves pushing an S-vertex down one level."""
    out = []
    for v in shuffle.vertices:
        e, i = v.output.rsplit("_", 1)
        i = int(i)
        if any(inp.rsplit("_", 1)[1] != str(i) for inp in v.inputs):
            continue   # a level vertex, not an S-vertex at level i
        below = shuffle.vertex_below(v.output)
        if below is None or below.inputs != (v.output,):
            continue
        be, bi = below.output.rsplit("_", 1)
        if be != e or int(bi) != i + 1:
            continue   # the vertex below is not the level move e_i -> e_{i+1}
        vs = [w for w in shuffle.vertices if w not in (v, below)]
        for inp in v.inputs:
            f = inp.rsplit("_", 1)[0]
            vs.append(Vertex((pair(f, i),), pair(f, i + 1)))
        vs.append(Vertex(tuple(pair(inp.rsplit("_", 1)[0], i + 1) for inp in v.inputs),
                         pair(e, i + 1)))
        out.append(Tree(tuple(vs), shuffle.root))
    return out


def shuffles(s: Tree, n: int) -> list[Tree]:
    """All shuffles of S with the linear tree of length n, generated by
    percolation from the canonical shuffle, deduplicated by edge set."""
    if not s.vertices:
        return [canonical_shuffle(s, n)]
    start = canonical_shuffle(s, n)
    seen = {start.edges: start}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        for nxt in _percolations(s, n, cur):
            if nxt.edges not in seen:
                seen[nxt.edges] = nxt
                frontier.append(nxt)
    return sorted(seen.values(), key=lambda t: sorted(t.edges))


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
    if not 0 <= k <= n:
        raise TreeError(f"level {k} out of range 0..{n}")
    vs = [Vertex((f"a_{i}",), f"a_{i+1}") for i in range(k)]
    vs += [Vertex((f"b_{i}",), f"b_{i+1}") for i in range(k)]
    vs.append(Vertex((f"a_{k}", f"b_{k}"), f"c_{k}"))
    vs += [Vertex((f"c_{i}",), f"c_{i+1}") for i in range(k, n)]
    return Tree(tuple(vs), f"c_{n}")


def c2_tensor_complex(n: int) -> Complex:
    return tensor_complex(c2(), n)


def named_cell(ambient: Complex, kind: str, n: int, i: int = 0, j: int = 0) -> Tree:
    """Distinguished cells of the binary-corolla tensor complex.

    kinds: pi (i in 0..n), alpha, beta, gamma, d (the face D_i T_j), and
    sigma_alpha (the degeneracy of alpha at a_j -- returned as the shape of
    the degenerate dendrex; it is not a cell of the complex).
    """
    a = [f"a_{t}" for t in range(n + 1)]
    b = [f"b_{t}" for t in range(n + 1)]
    c = [f"c_{t}" for t in range(n + 1)]
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
        tj = c2_shuffle(n, j)
        es = set(tj.edges) - ({a[i], b[i]} if i < j else {c[i]})
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
    cells = []
    for j in range(n + 1):
        for i in range(n + 1):
            if i != j:
                cells.append(named_cell(amb, "d", n, i, j).edges)
    cells.append(frozenset(f"a_{t}" for t in range(n + 1)))
    cells.append(frozenset(f"c_{t}" for t in range(n + 1)))
    return amb.closure_subcomplex(cells)
