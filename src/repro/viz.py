"""Graph export for visualisation (Graphviz DOT).

The paper's Fig. 1 draws the partial-order graph as its Hasse diagram with
transitive edges omitted; :func:`to_dot` produces exactly that picture for
any :class:`~repro.graph.dag.OrderedGraph`, optionally painting the
coloring state (GREEN/RED/BLUE) so a run can be inspected visually with any
Graphviz viewer::

    dot -Tsvg graph.dot -o graph.svg
"""

from __future__ import annotations

from pathlib import Path

from .graph.analysis import transitive_reduction
from .graph.coloring import Color, ColoringState
from .graph.dag import OrderedGraph

_FILL = {
    Color.UNCOLORED: "white",
    Color.GREEN: "palegreen",
    Color.RED: "lightcoral",
    Color.BLUE: "lightblue",
}


def _vertex_label(graph: OrderedGraph, vertex: int) -> str:
    pairs = graph.member_pairs(vertex)
    names = [f"p{i + 1},{j + 1}" for i, j in pairs[:4]]
    if len(pairs) > 4:
        names.append(f"... +{len(pairs) - 4}")
    return "\\n".join(names)


def to_dot(
    graph: OrderedGraph,
    state: ColoringState | None = None,
    name: str = "partial_order",
    reduce_edges: bool = True,
) -> str:
    """Render *graph* as a Graphviz DOT digraph.

    Args:
        graph: the (grouped) partial-order graph.
        state: optional coloring to paint vertices with.
        name: DOT graph name.
        reduce_edges: draw the Hasse diagram (default, like the paper's
            Fig. 1) instead of the full transitive relation.
    """
    lines = [f"digraph {name} {{", "  rankdir=TB;", '  node [shape=box, style=filled];']
    asked_vertices = set(state.asked_order) if state is not None else set()
    for vertex in range(len(graph)):
        color = state.color_of(vertex) if state is not None else Color.UNCOLORED
        attributes = [
            f'label="{_vertex_label(graph, vertex)}"',
            f'fillcolor="{_FILL[color]}"',
        ]
        if vertex in asked_vertices:
            attributes.append("penwidth=2")
        lines.append(f"  v{vertex} [{', '.join(attributes)}];")
    if reduce_edges:
        edges = transitive_reduction(graph)
    else:
        relation = graph.reachability
        edges = [
            (u, int(v)) for u in range(len(graph)) for v in relation.descendants(u)
        ]
    for u, v in sorted(edges):
        lines.append(f"  v{u} -> v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def save_dot(
    graph: OrderedGraph,
    path: str | Path,
    state: ColoringState | None = None,
    **kwargs,
) -> Path:
    """Write :func:`to_dot` output to *path*; returns the path."""
    path = Path(path)
    path.write_text(to_dot(graph, state=state, **kwargs), encoding="utf-8")
    return path
