"""The Power+ error-tolerance layer (paper §6, Algorithm 5).

Two error sources exist: workers answer wrongly, and a wrong answer is then
*amplified* by partial-order inference.  Power+ breaks the amplification:

1. During the loop, an answer with confidence below the threshold (paper:
   0.8) colors its vertex BLUE — accepted as asked, but with no inference to
   ancestors or descendants.  (Handled in ``QuestionSelector._ask``.)
2. After the loop, the confidently-colored GREEN/RED pairs train the Eq. 7
   attribute weights and a match-probability histogram over Eq. 8 weighted
   similarities; every pair living in a BLUE vertex is then colored by its
   bin's probability (GREEN iff > 0.5).

This module implements step 2; :class:`ErrorPolicy` carries the knobs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.ground_truth import Pair
from ..exceptions import ConfigurationError
from ..graph.coloring import Color, ColoringState
from ..graph.dag import OrderedGraph
from .histograms import attribute_weights, build_histogram, weighted_similarities


@dataclass(frozen=True)
class ErrorPolicy:
    """Configuration of the Power+ error-tolerant mode.

    Attributes:
        confidence_threshold: answers below this confidence become BLUE
            (paper default 0.8).
        num_bins: histogram bins for the §6 coloring step (paper: 20).
        binning: ``"equi-depth"`` (§6) or ``"equi-width"`` (Appendix C).
    """

    confidence_threshold: float = 0.8
    num_bins: int = 20
    binning: str = "equi-depth"

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise ConfigurationError(
                f"confidence_threshold must be in [0, 1], got {self.confidence_threshold}"
            )
        if self.num_bins < 1:
            raise ConfigurationError(f"num_bins must be >= 1, got {self.num_bins}")
        if self.binning not in ("equi-depth", "equi-width"):
            raise ConfigurationError(f"unknown binning {self.binning!r}")


def resolve_undecided_vertices(
    graph: OrderedGraph,
    state: ColoringState,
    vertices: np.ndarray,
    policy: ErrorPolicy,
) -> dict[Pair, bool]:
    """Color the pairs of *vertices* from the GREEN/RED histogram (§6).

    The vertices are typically BLUE (low-confidence answers), but the same
    machinery settles still-uncolored vertices when a question budget runs
    out before the graph is fully colored.
    """
    if vertices.size == 0:
        return {}
    base = graph.base
    green_members = graph.member_vertices(state.vertices_with(Color.GREEN))
    red_members = graph.member_vertices(state.vertices_with(Color.RED))
    undecided_members = graph.member_vertices(vertices)
    undecided_pairs = [base.pairs[member] for member in undecided_members.tolist()]

    weights = attribute_weights(
        base.vectors[green_members], num_attributes=base.num_attributes
    )
    undecided_values = weighted_similarities(base.vectors[undecided_members], weights)
    if green_members.size == 0:
        # Without a single GREEN training pair the histogram would label
        # everything RED regardless of similarity (every trained bin is
        # pure-RED and empty bins inherit it).  Fall back to thresholding
        # the weighted similarity — the pure machine-side prior.
        return dict(zip(undecided_pairs, (undecided_values > 0.5).tolist()))
    trained = np.concatenate((green_members, red_members))
    training_values = weighted_similarities(base.vectors[trained], weights)
    training_labels = np.arange(trained.size) < green_members.size
    histogram = build_histogram(
        training_values, training_labels, num_bins=policy.num_bins, binning=policy.binning
    )
    return dict(zip(undecided_pairs, histogram.classify_many(undecided_values).tolist()))


def resolve_blue_pairs(
    graph: OrderedGraph, state: ColoringState, policy: ErrorPolicy
) -> dict[Pair, bool]:
    """Color the pairs of BLUE vertices from the GREEN/RED histogram (§6).

    Returns:
        Match decision per BLUE pair; empty when nothing is BLUE.
    """
    return resolve_undecided_vertices(graph, state, state.blue_vertices(), policy)
