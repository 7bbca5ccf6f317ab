"""Built-in anodyne certificates replaying the filtration proofs.

Four families, keyed by the ids used on the command line:

* "6.4" — the pushout-product of the binary-corolla leaf horn with a
  simplex boundary is binary extended left anodyne: a filtration of the
  binary tensor complex starting from the union of mixed faces and chains.
* "7.2" — a root horn of an extended corolla becomes binary extended left
  anodyne after passing to a larger tree splitting the root vertex.
* "8.3" — the codimension argument: the subcomplex X generated around a
  distinguished vertex extends to the full tree by inner horn attachments
  over (n,k)-initial-subtree stages with chosen omitted faces.
* "8.5" — every root horn is extended left anodyne: a retract through the
  tree W with one extra stem edge, recursively certified.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

from .anodyne import AnodyneClass, BuildError, Certificate, _horn_step, build_filtration
from .complexes import Cell, Complex, reject_stumps, representable
from .shuffles import filtration_base
from .trees import (COROLLA_FACE, ROOT_FACE, TOP_FACE, Tree, TreeError, Vertex, branch,
                    face, faces, has_root_horn, is_extended_corolla, stem_edges,
                    walk_up)


# ---------------------------------------------------------------------------
# "6.4": the binary tensor filtration
# ---------------------------------------------------------------------------

def _attach_pass(amb: Complex, present: int, order: list,
                 ceiling: AnodyneClass) -> int:
    """One pass over the absent cells, smallest first, attaching each that
    is a horn pushout of class at most `ceiling` against the growing
    subcomplex; returns the grown subcomplex."""
    for i in amb.indices(amb.full_mask & ~present):
        if _horn_step(amb, i, present, ceiling) is not None:
            order.append(amb.order[i])
            present |= amb.masks[i]
    return present


def binary_tensor_certificate(n: int) -> Certificate:
    """Filtration of the binary-corolla tensor complex from the union of
    mixed boundary faces and the two end chains up to the full complex.
    Exactly one step is a root-horn (binary extended left) attachment."""
    if n < 1:
        raise ValueError("n must be >= 1")
    base = filtration_base(n)
    amb = base.ambient
    present = base.mask
    order: list[Cell] = []
    while present != amb.full_mask:
        # saturate along left horns, then take one binary extended left step
        while (grown := _attach_pass(amb, present, order, AnodyneClass.LEFT)) != present:
            present = grown
        if present == amb.full_mask:
            break
        i = next((i for i in amb.indices(amb.full_mask & ~present)
                  if _horn_step(amb, i, present, AnodyneClass.BINARY_EXTENDED_LEFT)), None)
        if i is None:
            raise BuildError("no horn-attachable cell of class at most "
                             "binary extended left; filtration is stuck")
        order.append(amb.order[i])
        present |= amb.masks[i]
    return build_filtration(amb, list(base), order)


# ---------------------------------------------------------------------------
# "7.2": root horn of an extended corolla through the split tree
# ---------------------------------------------------------------------------

def split_vertex_tree(n: int, k: int) -> Tree:
    """The tree splitting the root vertex of the extended corolla: a chain
    a_0..a_n, a vertex v with leaves b_1..b_k and output d, and the root
    vertex u with inputs a_n, d and root c."""
    if n < 1 or k < 1:
        raise ValueError("n >= 1 and k >= 1 required")
    vs = [Vertex((f"a_{i}",), f"a_{i+1}") for i in range(n)]
    vs.append(Vertex(tuple(f"b_{i}" for i in range(1, k + 1)), "d"))
    vs.append(Vertex((f"a_{n}", "d"), "c"))
    return Tree(tuple(vs), "c")


def extended_corolla_split_certificate(n: int, k: int) -> Certificate:
    """Certify that the extended-corolla root horn, pushed into the split
    tree, extends to the full split tree; the final step is inner."""
    t = split_vertex_tree(n, k)
    amb = representable(t)
    a = [f"a_{i}" for i in range(n + 1)]
    b = [f"b_{i}" for i in range(1, k + 1)]
    # the root horn of the contracted tree: all faces except the chain
    contracted = amb.tree_of(t.edges - {"d"})
    start = [f.subtree.edges for f in faces(contracted) if f.kind != ROOT_FACE]
    order: list[set] = [set(b) | {"d"}]
    for l in range(n):
        for sub in itertools.combinations(range(n + 1), l + 1):
            order.append({a[i] for i in sub} | set(b) | {"d", "c"})
    order.append(set(a) | {"d", "c"})
    order.append(set(t.edges))
    return build_filtration(amb, start, order)      # distinct cells by construction


# ---------------------------------------------------------------------------
# "8.3": the codimension argument
# ---------------------------------------------------------------------------

def _base_segment(tree: Tree, v_output: str) -> list[Vertex]:
    """The vertices not above any input of the distinguished vertex: those
    of the initial segment with the inputs as leaves."""
    v = tree.vertex_above(v_output)
    if v is None:
        raise TreeError(f"no vertex with output {v_output!r}")
    reached, _ = walk_up(tree, [tree.root], v.inputs)
    return [w for e in reached if e not in v.inputs
            and (w := tree.vertex_above(e)) is not None]


def codim_base_cells(tree: Tree, v_output: str) -> list[frozenset]:
    """The starting subcomplex of the codimension argument for the vertex
    with the given output edge: the base segment with the vertex inputs as
    leaves, the contractions of the full tree at the segment's inner edges
    and the outer faces of the full tree at segment vertices; for a
    one-vertex segment, the corolla and the maximal subtrees above each
    input instead."""
    seg = Tree(_base_segment(tree, v_output), tree.root)
    cells = [seg.edges]
    if len(seg.vertices) >= 2:
        for e in sorted(seg.inner_edges):
            cells.append(tree.edges - {e})
        for f in faces(tree):
            if f.kind in (TOP_FACE, ROOT_FACE) and f.label != v_output \
                    and seg.vertex_above(f.label) is not None:
                cells.append(f.subtree.edges)
    else:
        for d in tree.vertex_above(v_output).inputs:
            cells.append(branch(tree, d).edges)
    return cells


def _initial_subtree_codim(tree: Tree, cell_tree: Tree) -> int:
    """The codimension of a cell as an initial subtree of the ambient tree
    (segment vertices minus cell vertices).  The cell holds the root edge
    with a vertex on it, so it came from contractions and top faces only
    and its leaves cut every branch."""
    leaves = cell_tree.leaves
    segment, _ = walk_up(tree, [tree.root], leaves)
    # the segment has a vertex above each of its edges but the cell's leaves
    return len(segment) - len(leaves) - len(cell_tree.vertices)


def codim_additions(amb: Complex, cell: Cell, v_output: str) -> list[frozenset]:
    """The ordered cells of the inner filtration from the base subcomplex
    to the given cell.

    Enumerates initial subtrees containing the base segment by vertex count
    and codimension, omitting from each stage the chosen faces that arrive
    later as contractions of larger subtrees.
    """
    tree = amb.tree_of(cell)
    kept = _base_segment(tree, v_output)     # a TreeError for an unknown vertex
    v = tree.vertex_above(v_output)
    base_count = len(kept)
    big_n = len(tree.vertices) - base_count + 1
    # a complex has no stumps, so a vertex is one of a cell exactly when its
    # output and inputs are edges of the cell
    kept_edges = frozenset().union(*[(w.output, *w.inputs) for w in kept if w is not v])
    # classify the closure cells that are initial subtrees containing the
    # base segment (the distinguished vertex may be merged upward by
    # contracting its input edges)
    by_nk: dict[tuple[int, int], list[frozenset]] = {}
    for i in amb.indices(amb.masks[amb.index_of(cell)]):    # in cell order
        es, ct = amb.order[i], amb.cell_trees[i]
        if not kept_edges <= es:
            continue
        if ct.vertex_above(v_output) is None:
            continue
        n = len(ct.vertices) - base_count + 1
        by_nk.setdefault((n, _initial_subtree_codim(tree, ct)), []).append(es)
    # chosen faces, built with n descending: contract the least input edge
    # of the distinguished vertex that is inner in the subtree
    chosen: dict[tuple[int, int], set[frozenset]] = defaultdict(set)
    for nn in range(big_n - 1, 0, -1):
        for kk in range(1, big_n - nn + 1):
            for s in by_nk.get((nn + 1, kk - 1), []):
                if s in chosen[(nn + 1, kk - 1)]:
                    continue
                s_inner = amb.tree_of(s).inner_edges
                inner = [d for d in v.inputs if d in s_inner]
                if inner:
                    chosen[(nn, kk)].add(s - {inner[0]})
    order: list[frozenset] = []
    for nn in range(2, big_n + 1):
        for kk in range(0, big_n - nn + 1):
            order.extend(s for s in by_nk.get((nn, kk), [])
                         if s not in chosen[(nn, kk)])
    return order


def codim_certificate(tree: Tree, v_output: str) -> Certificate:
    amb = representable(tree)
    base = codim_base_cells(tree, v_output)
    # each addition holds the base segment's edges and more vertices, so it lies
    # in no base cell; they come by ascending vertex count, so in no earlier one
    return build_filtration(amb, base, codim_additions(amb, tree.edges, v_output))


# ---------------------------------------------------------------------------
# "8.5": root horns are extended left anodyne
# ---------------------------------------------------------------------------

def root_horn_certificate(tree: Tree,
                          omitted: tuple[str, str] | None = None) -> Certificate:
    """A certificate of extended-left class for the root horn of the tree,
    the one omitting its root face (`omitted` None or that face's key) or,
    on a corolla, the colour of a leaf (`omitted` that face's key).

    For extended corollas (every non-root vertex unary, covering corollas
    and linear trees) this is a single generating horn step.  Otherwise the
    horn inclusion is certified as a retract through the tree with one
    extra stem edge.
    """
    return _root_horn(tree, omitted, {})


def _root_horn(tree: Tree, omitted: tuple[str, str] | None,
               memo: dict[tuple, Certificate]) -> Certificate:
    """`root_horn_certificate`, sharing through `memo` the nested root-horn
    certificates of one top-level call, keyed by their cell trees' written
    form `(root, vertices)`: a certificate is immutable, so a cell tree
    written alike gets the same one."""
    reject_stumps(tree)
    if len(tree.vertices) == 1:
        if omitted not in [(COROLLA_FACE, e) for e in tree.leaves]:
            raise TreeError("a corolla root horn omits a leaf colour"
                            + (f", not {':'.join(omitted)}" if omitted else ""))
    elif not has_root_horn(tree):
        raise TreeError("tree has no root horn")
    elif omitted not in (None, (ROOT_FACE, tree.root)):
        raise TreeError(f"the root horn omits {ROOT_FACE}:{tree.root}, not {':'.join(omitted)}")
    else:
        omitted = (ROOT_FACE, tree.root)
    # a stump-free tree's faces have distinct edge sets
    start = [f.subtree.edges for f in faces(tree) if f.key != omitted]
    if is_extended_corolla(tree):       # a corolla is one
        return build_filtration(representable(tree), start, [tree.edges])
    w_cert, a_prime, a0 = _root_horn_through_split(tree, start, memo)
    section = tuple((e, e) for e in sorted(tree.edges))
    retraction = tuple(sorted([(a_prime, a0)] + [(e, e) for e in tree.edges]))
    # the tree is W's inner face at a', so W's complex holds its closure
    w = w_cert.ambient()
    return Certificate(ambient_generators=(tree,),
                       start=tuple(start),
                       target=tuple(sorted(w.cells_of(w.masks[w.index[tree.edges]]),
                                           key=sorted)),
                       kind="retract", sub=w_cert,
                       section=section, retraction=retraction)


def _root_horn_through_split(tree: Tree, start_cells, memo: dict[tuple, Certificate]):
    """Certify horn -> full split tree W, where W inserts one fresh edge a'
    between the stem and the tree top of the branch above the root vertex.
    Returns (certificate over W, the fresh edge, the edge below it).

    Each cell is planned once and lies in neither the start nor an earlier
    cell, so `build_filtration`'s "already present" error is the only guard.
    By stem set, a cell's edges among a_0..a_l: every cell holds a', which no
    start cell does.  A Step-1 cell of subset J holds exactly the stem edges
    J, and J grows.  Within J, the additions of Uprime(J)'s root face and of
    Uprime(J) have more vertices than U0(J)'s root face and than U0(J) in
    turn, U0(J) and the latter hold c and the former do not, and each list
    ascends by vertex count; a cell's additions end with it when it has a
    vertex above d_edges, else Uprime(J) == U0(J).  Steps 2-4 hold the whole
    stem.  A Step-3 cell has a vertex above a', which Step 2's lacks; a
    segment is fixed by its leaves, so a later one's contractions lie in no
    earlier one's, and one segment's come by ascending vertex count.  Step
    4's root face lies only in W, which comes last."""
    c = tree.root
    above = face(tree, ROOT_FACE, c).subtree     # the branch above the root vertex
    b_edges = tree.edges - above.edges - {c}     # the root vertex's leaf inputs
    st = stem_edges(above)               # a_0 ... a_l with a_l its root
    a0 = st[0]
    l = len(st) - 1
    v = tree.vertex_above(a0)            # tree-top root vertex, arity >= 2
    a_prime = "a'"                       # a fresh edge name
    while a_prime in tree.edges:
        a_prime += "'"
    w_vertices = [Vertex(x.inputs, a_prime) if x == v else x
                  for x in tree.vertices]
    w_vertices.append(Vertex((a_prime,), a0))
    w = Tree(tuple(w_vertices), c)
    amb = Complex([w])
    d_edges = v.inputs

    def U0(J):
        return frozenset(set(d_edges) | {a_prime, c} | b_edges
                         | {st[j] for j in J})

    def Uprime(J):
        drop = {st[j] for j in range(l + 1) if j not in J}
        return frozenset(w.edges - drop)

    order: list[frozenset] = []
    nested: dict[frozenset, Certificate] = {}
    # Step 1: grow the faces missing stem edges in four families per size
    # of the kept stem subset (strict subsets only)
    for size in range(0, l + 1):
        subsets = list(itertools.combinations(range(l + 1), size))
        for J in subsets:
            order.append(face(amb.tree_of(U0(J)), ROOT_FACE, c).subtree.edges)
        for J in subsets:
            tp = face(amb.tree_of(Uprime(J)), ROOT_FACE, c).subtree.edges
            order.extend(codim_additions(amb, tp, a_prime))
        for J in subsets:
            order.append(U0(J))
        for J in subsets:
            order.extend(codim_additions(amb, Uprime(J), a_prime))
    # Step 2: the initial segment with a' as a leaf, at its root horn
    order.append(frozenset({c, a_prime} | b_edges | set(st)))
    # Step 3: larger initial segments (the cells at W's root made of W's
    # vertices) and their tree-top contractions, each attached along its own
    # recursively certified root horn
    stem_set = set(st) | {a_prime}
    own = set(w.vertices)
    segments = [s for s in amb.cell_trees if s.root == c
                and len(s.vertices) >= l + 3 and own.issuperset(s.vertices)]
    segments.sort(key=lambda s: (len(s.vertices), sorted(s.edges)))
    for seg in segments:
        pool = sorted(seg.inner_edges - stem_set)
        for esize in range(len(pool), -1, -1):
            if seg.edges == w.edges and esize == 0:
                continue     # the full tree W is attached in step 4
            batch = [frozenset(seg.edges - set(E))
                     for E in itertools.combinations(pool, esize)]
            for cl in sorted(batch, key=amb.index.__getitem__):
                sub = amb.tree_of(cl)
                key = (sub.root, sub.vertices)
                if key not in memo:
                    memo[key] = _root_horn(sub, None, memo)
                order.append(cl)
                nested[cl] = memo[key]
    # Step 4: the root face of W at the inner horn of a', then W itself
    order += [frozenset(w.edges - ({c} | b_edges)), frozenset(w.edges)]
    cert = build_filtration(amb, list(start_cells), order, nested=nested)
    return cert, a_prime, a0


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

# The builder of each lemma id and the names of its parameters, the required
# ones and then the optional ones, in call order.
LEMMAS = {
    "6.4": (binary_tensor_certificate, ("n",), ()),
    "7.2": (extended_corolla_split_certificate, ("n", "k"), ()),
    "8.3": (codim_certificate, ("tree", "v"), ()),
    "8.5": (root_horn_certificate, ("tree",), ("omitted",)),
}
LEMMA_IDS = tuple(LEMMAS)


def build_lemma_certificate(lemma_id: str, **params) -> Certificate:
    if lemma_id not in LEMMAS:
        raise ValueError(f"unknown certificate id {lemma_id!r}")
    build, required, optional = LEMMAS[lemma_id]
    return build(*(params[p] for p in required), *(params.get(p) for p in optional))
