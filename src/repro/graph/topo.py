"""Topological layering of the dominance DAG (paper §5.3.2).

The paper's Power selector repeatedly topologically sorts the *uncolored*
vertices into level sets ``L_1 .. L_|L|`` (Kahn peeling) and asks the middle
level.  With a reachability index the levels are peeled from its packed
rows (:meth:`~repro.graph.reachability.ReachabilityIndex.kahn_layers`).
A graph without one (a naive oracle twin, or a graph that
:func:`~repro.verify.oracles.decline_reachability` made decline it) takes
the reference path: because the dominance relation is transitively
closed, the Kahn level of a vertex equals the length of its longest chain
of strict dominators, computed by one longest-chain DP over the adjacency
lists in the exact linear extension the index is stored in,
:func:`~repro.graph.construction.linear_extension` (descending
lexicographic order of the dominant rows).
"""

from __future__ import annotations

import numpy as np

from . import construction
from .dag import OrderedGraph, PairGraph
from ..exceptions import GraphError


def _linear_extension(graph: OrderedGraph) -> np.ndarray:
    """Vertex order compatible with dominance (dominators first)."""
    if isinstance(graph, PairGraph):
        return construction.linear_extension(graph.vectors)
    return construction.linear_extension(graph.lower_bounds)  # type: ignore[attr-defined]


def topological_layers(
    graph: OrderedGraph, active: np.ndarray | None = None
) -> list[np.ndarray]:
    """Kahn level sets of the sub-DAG induced on *active* vertices.

    Args:
        graph: the ordered graph.
        active: boolean mask of vertices to layer; defaults to all.

    Returns:
        ``layers[0]`` holds the active vertices with no active ancestors
        (the paper's L_1), and so on, each level in ascending vertex order.
        Empty input yields an empty list.
    """
    n = len(graph)
    if active is None:
        active = np.ones(n, dtype=bool)
    if active.shape != (n,):
        raise GraphError(f"active mask has shape {active.shape}, expected ({n},)")
    if graph.reachability is not None:
        return graph.reachability.kahn_layers(active)
    depth = np.zeros(n, dtype=np.int64)
    adjacency = graph.adjacency()
    for vertex in _linear_extension(graph):
        vertex = int(vertex)
        if not active[vertex]:
            continue
        if depth[vertex] == 0:
            depth[vertex] = 1
        children = adjacency[vertex]
        if len(children) == 0:
            continue
        active_children = children[active[children]]
        candidate = depth[vertex] + 1
        np.maximum.at(depth, active_children, candidate)
    max_depth = int(depth.max()) if np.any(active) else 0
    return [
        np.flatnonzero(active & (depth == level)) for level in range(1, max_depth + 1)
    ]


def middle_layer(layers: list[np.ndarray]) -> np.ndarray:
    """The paper's question layer: ``L_{ceil(|L| / 2)}`` (1-based).

    Middle layers are where boundary vertices concentrate — top layers tend
    GREEN, bottom layers tend RED (§5.3.2).  The index matches the paper's
    walkthrough: with ``|L| = 5`` it asks L_3, and with the two remaining
    layers {g2}, {g8} it asks g2.
    """
    if not layers:
        raise GraphError("cannot pick the middle of zero layers")
    return layers[(len(layers) - 1) // 2]
