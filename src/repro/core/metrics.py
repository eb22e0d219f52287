"""Evaluation metrics (paper §7.1).

Quality is pairwise: with ``S_T`` the gold same-entity pairs and ``S_P`` the
pairs an algorithm reports as matches, precision is ``|S_T ∩ S_P| / |S_P|``,
recall is ``|S_T ∩ S_P| / |S_T|``, and F-measure their harmonic mean.  Gold
pairs dropped by the similarity pruning still count against recall — the
pruning step's misses are part of every algorithm's score, exactly as in
the paper where all methods share the same pruned candidate set.

:func:`entity_quality` gives the same report from the table's entity ids,
without building ``S_T``.
"""

from __future__ import annotations

from collections.abc import Iterable, Set
from dataclasses import dataclass

import numpy as np

from ..data.ground_truth import Pair, canonical_pair, pair_arrays
from ..data.table import Table
from ..exceptions import DataError


@dataclass(frozen=True)
class QualityReport:
    """Pairwise precision / recall / F-measure with the raw counts."""

    precision: float
    recall: float
    f_measure: float
    true_positives: int
    false_positives: int
    false_negatives: int

    def __str__(self) -> str:
        return (
            f"P={self.precision:.3f} R={self.recall:.3f} F1={self.f_measure:.3f} "
            f"(tp={self.true_positives} fp={self.false_positives} "
            f"fn={self.false_negatives})"
        )


def pairwise_quality(
    predicted_matches: Iterable[Pair], true_matches: Set[Pair]
) -> QualityReport:
    """Score a set of predicted match pairs against the gold match pairs.

    Pairs are canonicalised, so callers may pass them in either orientation.
    An empty prediction set scores precision 1 by convention (no false
    positives were asserted).
    """
    predicted = {canonical_pair(*pair) for pair in predicted_matches}
    gold = {canonical_pair(*pair) for pair in true_matches}
    return _report(len(predicted & gold), len(predicted), len(gold))


def entity_quality(predicted_matches: Iterable[Pair], table: Table) -> QualityReport:
    """``pairwise_quality(predicted_matches, true_match_pairs(table))``, from entity ids.

    A distinct predicted pair is a true positive when its two records share
    an entity id; the gold count is ``k (k - 1) / 2`` summed over each
    entity's ``k`` records.  Pairs may come in either orientation and
    repeat, as for :func:`pairwise_quality`, but every pair must join two
    distinct integer record ids of *table* (:class:`DataError` otherwise).
    """
    if not table.has_ground_truth():
        raise DataError(f"table {table.name!r} has records without entity ids")
    # Entity ids may be strings (the stream accepts them): intern them.
    interned: dict[object, int] = {}
    codes = np.fromiter(
        (interned.setdefault(record.entity_id, len(interned)) for record in table),
        dtype=np.int64,
        count=len(table),
    )
    low, high = pair_arrays(predicted_matches, len(table))
    keys = np.sort(low * len(table) + high)
    distinct = keys[np.r_[True, keys[1:] != keys[:-1]]] if keys.size else keys
    low, high = np.divmod(distinct, len(table))
    true_positives = int(np.count_nonzero(codes[low] == codes[high]))
    sizes = np.bincount(codes)
    return _report(true_positives, distinct.size, int((sizes * (sizes - 1) // 2).sum()))


def _report(true_positives: int, predicted: int, gold: int) -> QualityReport:
    """Precision, recall and F-measure from the three pair counts."""
    precision = true_positives / predicted if predicted else 1.0
    recall = true_positives / gold if gold else 1.0
    if precision + recall == 0:
        f_measure = 0.0
    else:
        f_measure = 2 * precision * recall / (precision + recall)
    return QualityReport(
        precision=precision,
        recall=recall,
        f_measure=f_measure,
        true_positives=true_positives,
        false_positives=predicted - true_positives,
        false_negatives=gold - true_positives,
    )
