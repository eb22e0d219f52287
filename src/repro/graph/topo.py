"""Topological layering of the dominance DAG (paper §5.3.2).

The paper's Power selector repeatedly topologically sorts the *uncolored*
vertices into level sets ``L_1 .. L_|L|`` (Kahn peeling) and asks the middle
level.  The levels are peeled from the graph's relation
(:meth:`~repro.graph.reachability.ReachabilityIndex.kahn_layers`): in-degrees
are popcounts of the ancestor rows, and each level subtracts the column
sums of its descendant rows.  ``repro.verify``'s Kahn peeling of the
reference lists is what the battery compares them with.
"""

from __future__ import annotations

import numpy as np

from .dag import OrderedGraph
from ..exceptions import GraphError


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
    return graph.reachability.kahn_layers(active)


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
