"""Graphviz DOT rendering of trees: leaves at the top, root at the bottom.

Vertices are drawn as points; the dangling ends of leaves and of the root
edge are invisible anchors, so every edge of the tree appears as a labelled
graph edge.  Output is deterministic: vertices and edges are sorted.
"""

from __future__ import annotations

from .trees import Tree


def _node_id(tree: Tree, edge: str, upper: bool) -> str:
    v = tree.vertex_above(edge) if upper else tree.vertex_below(edge)
    if v is not None:
        return f"v_{v.output}"
    return f"leaf_{edge}" if upper else f"root_{edge}"


def tree_to_dot(tree: Tree, name: str = "tree") -> str:
    lines = [f"digraph \"{name}\" {{",
             "  rankdir=TB;",
             "  node [shape=point, width=0.08];",
             "  edge [arrowhead=none, fontsize=10];"]
    anchors = []
    for e in sorted(tree.edges):
        if tree.vertex_above(e) is None:
            anchors.append(f"leaf_{e}")
        if tree.vertex_below(e) is None:
            anchors.append(f"root_{e}")
    for a in sorted(anchors):
        lines.append(f"  \"{a}\" [style=invis];")
    for v in tree.vertices:
        lines.append(f"  \"v_{v.output}\";")
    for e in sorted(tree.edges):
        up = _node_id(tree, e, upper=True)
        down = _node_id(tree, e, upper=False)
        lines.append(f"  \"{up}\" -> \"{down}\" [label=\"{e}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"
