"""Attribute weights, weighted similarity, and histograms (paper §6).

After the crowd loop, GREEN pairs act as positive training data: each
attribute's weight is its share of total similarity mass over the GREEN
pairs (Eq. 7), every pair gets a weighted similarity (Eq. 8), and histograms
over the already-colored pairs estimate, per similarity range, the
probability that a pair is a match.  BLUE (low-confidence) pairs are then
colored by the probability of the bin they fall into.

Both binning schemes that appear in the paper are provided: the running
example of Appendix C uses five equi-*width* bins of width 0.2, while §6 and
the experiments (§E.3, "we build 20 histograms") describe equi-*depth* bins.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigurationError


def attribute_weights(green_vectors: np.ndarray, num_attributes: int) -> np.ndarray:
    """Eq. 7: each attribute's share of similarity mass over GREEN pairs.

    With no GREEN pairs (or zero total mass) the weights fall back to
    uniform — there is no signal to prefer one attribute.
    """
    if green_vectors.size == 0:
        return np.full(num_attributes, 1.0 / num_attributes)
    totals = green_vectors.sum(axis=0)
    mass = totals.sum()
    if mass <= 0:
        return np.full(num_attributes, 1.0 / num_attributes)
    return totals / mass


def weighted_similarities(vectors: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Eq. 8: per-pair weighted similarity ``s_hat = sum_k w_k * s^k``."""
    vectors = np.asarray(vectors, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[1] != weights.shape[0]:
        raise ConfigurationError(
            f"vectors {vectors.shape} incompatible with weights {weights.shape}"
        )
    return vectors @ weights


@dataclass
class MatchHistogram:
    """Bins over weighted similarity with per-bin match probabilities.

    Attributes:
        boundaries: ascending inner bin boundaries; bin ``i`` covers
            ``(boundaries[i-1], boundaries[i]]`` with implicit outer bounds.
        probabilities: estimated P(match) per bin; bins that received no
            training pairs inherit the nearest non-empty bin's estimate.
        counts: training pairs per bin, for diagnostics.
    """

    boundaries: np.ndarray
    probabilities: np.ndarray
    counts: np.ndarray

    def bin_of(self, value: float) -> int:
        return min(bisect_right(list(self.boundaries), value), len(self.probabilities) - 1)

    def probability(self, value: float) -> float:
        """Estimated probability that a pair with this ``s_hat`` is a match."""
        return float(self.probabilities[self.bin_of(value)])

    def classify(self, value: float) -> bool:
        """The paper's rule: GREEN when the bin probability exceeds 0.5."""
        return self.probability(value) > 0.5

    def classify_many(self, values: np.ndarray) -> np.ndarray:
        """:meth:`classify` for every value at once (a boolean array)."""
        bins = np.searchsorted(self.boundaries, values, side="right")
        return self.probabilities[np.minimum(bins, len(self.probabilities) - 1)] > 0.5


def _fill_empty_bins(probabilities: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Give empty bins the estimate of the nearest non-empty bin.

    Weighted similarity is monotone evidence, so the nearest-neighbour fill
    preserves the (roughly) increasing shape of the match probability.
    """
    filled = probabilities.copy()
    non_empty = np.flatnonzero(counts > 0)
    if non_empty.size == 0:
        return np.full_like(filled, 0.5)
    for index in np.flatnonzero(counts == 0):
        nearest = non_empty[np.argmin(np.abs(non_empty - index))]
        filled[index] = probabilities[nearest]
    return filled


def build_histogram(
    values: np.ndarray,
    is_match: np.ndarray,
    num_bins: int = 20,
    binning: str = "equi-depth",
) -> MatchHistogram:
    """Fit a match-probability histogram from colored pairs.

    Args:
        values: weighted similarities of the GREEN/RED training pairs.
        is_match: True where the pair was colored GREEN.
        num_bins: the paper's experiments use 20.
        binning: ``"equi-depth"`` (paper §6) or ``"equi-width"``
            (the Appendix C example).
    """
    values = np.asarray(values, dtype=np.float64)
    is_match = np.asarray(is_match, dtype=bool)
    if values.shape != is_match.shape:
        raise ConfigurationError(
            f"values {values.shape} and labels {is_match.shape} must align"
        )
    if num_bins < 1:
        raise ConfigurationError(f"num_bins must be >= 1, got {num_bins}")
    if values.size == 0:
        return MatchHistogram(
            boundaries=np.array([]),
            probabilities=np.array([0.5]),
            counts=np.array([0]),
        )
    if binning == "equi-width":
        low, high = 0.0, 1.0
        boundaries = np.linspace(low, high, num_bins + 1)[1:-1]
    elif binning == "equi-depth":
        quantiles = np.linspace(0, 1, num_bins + 1)[1:-1]
        boundaries = np.unique(np.quantile(values, quantiles))
    else:
        raise ConfigurationError(
            f"binning must be 'equi-depth' or 'equi-width', got {binning!r}"
        )
    # side="right" gives [lo, hi) bins, matching Appendix C's h4 = [0.6, 0.8).
    bins = np.searchsorted(boundaries, values, side="right")
    actual_bins = len(boundaries) + 1
    counts = np.bincount(bins, minlength=actual_bins)
    greens = np.bincount(bins, weights=is_match.astype(np.float64), minlength=actual_bins)
    with np.errstate(invalid="ignore", divide="ignore"):
        probabilities = np.where(counts > 0, greens / np.maximum(counts, 1), 0.0)
    probabilities = _fill_empty_bins(probabilities, counts)
    return MatchHistogram(
        boundaries=np.asarray(boundaries), probabilities=probabilities, counts=counts
    )
