"""Structural analysis of partial-order graphs.

Diagnostics the paper reports or relies on implicitly:

* :func:`order_statistics` — size, edge count, comparability fraction
  (Appendix E.1.1 reports 70-84 % incomparability), depth (longest chain),
  and width (the Dilworth number ``B`` that bounds SinglePath's cost).
* :func:`transitive_reduction` — the Hasse diagram, i.e. the minimal edge
  set drawn in the paper's Fig. 1 ("if there is already a path between
  them, we do not show the direct edge").
* :func:`count_order_violations` — pairs whose ground truth contradicts the
  §5.1 monotonicity assumption; the paper argues "few pairs invalidate the
  partial order", and this makes the claim checkable on any dataset.

All three read the graph's relation, the packed reachability index, as
descendant rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.ground_truth import Pair
from ..exceptions import GraphError
from .dag import OrderedGraph, PairGraph
from .topo import topological_layers


@dataclass(frozen=True)
class OrderStatistics:
    """Summary statistics of a dominance DAG."""

    num_vertices: int
    num_edges: int
    comparability: float  # fraction of vertex pairs that are comparable
    depth: int  # longest chain length (number of topological layers)
    width: int  # Dilworth number B = minimal path-cover size

    def __str__(self) -> str:
        return (
            f"|V|={self.num_vertices} |E|={self.num_edges} "
            f"comparable={self.comparability:.1%} depth={self.depth} "
            f"width={self.width}"
        )


def order_statistics(graph: OrderedGraph, compute_width: bool = True) -> OrderStatistics:
    """Compute the summary statistics of *graph*.

    ``|E|`` is the number of bits in the descendant rows, the depth the
    number of Kahn layers, and the width the size of the relation's
    minimum path cover.

    Args:
        compute_width: the Dilworth number needs a maximum matching, which
            is the expensive part; pass False to skip it (reported as 0).
    """
    relation = graph.reachability
    n = len(graph)
    everything = np.ones(n, dtype=bool)
    num_edges = int(relation.row_counts(np.arange(n), ancestors=False).sum())
    width = 0
    if compute_width and n > 0:
        width = len(relation.path_cover().cover(everything))
    return OrderStatistics(
        num_vertices=n,
        num_edges=num_edges,
        comparability=num_edges / (n * (n - 1) / 2) if n >= 2 else 0.0,
        depth=len(topological_layers(graph, everything)),
        width=width,
    )


def transitive_reduction(graph: OrderedGraph) -> list[tuple[int, int]]:
    """The Hasse diagram: edges (u, v) with no intermediate w, u > w > v.

    Because the dominance relation is transitively closed, an edge is
    *redundant* exactly when ``v`` lies below another child of ``u``: the
    Hasse children of ``u`` are its descendants minus everything its
    descendants reach.
    """
    relation = graph.reachability
    reduced: list[tuple[int, int]] = []
    for u in range(len(graph)):
        children = relation.descendants(u)
        if children.size:
            kept = np.setdiff1d(children, relation.reached(children), assume_unique=True)
            reduced.extend((u, int(v)) for v in kept)
    return reduced


def count_order_violations(
    graph: PairGraph, truth: dict[Pair, bool]
) -> tuple[int, int]:
    """Count monotonicity violations of the §5.1 assumption.

    A violation is an ordered vertex pair ``u > v`` where ``v`` is a true
    match but ``u`` is not: a GREEN answer on ``v`` would wrongly color
    ``u`` GREEN (and a RED ``u`` would wrongly color ``v``).

    Returns:
        ``(violations, comparable_pairs)`` so callers can report a rate.
    """
    if not isinstance(graph, PairGraph):
        raise GraphError("violation counting needs a pair-level graph")
    relation = graph.reachability
    labels = np.array([truth[pair] for pair in graph.pairs], dtype=bool)
    # Column sums of the descendant rows: how many vertices lie above each.
    above = relation.row_counts(np.arange(len(graph)), ancestors=False)
    above_by_nonmatch = relation.row_counts(np.flatnonzero(~labels), ancestors=False)
    return int(above_by_nonmatch[labels].sum()), int(above.sum())
