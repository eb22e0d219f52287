"""Candidate-pair generation: the pruning step of §7.1.

"We compute a similarity score for each pair of records by Jaccard and prune
pairs whose similarity scores are below [tau]."  Every path runs the same
inverted-list join (:class:`repro.similarity.batch.PostingJoin`) — the
machine pruning pass that CrowdER et al. place in front of the crowd.
:func:`similar_pairs` runs it once over the whole table
(:func:`~repro.similarity.batch.sparse_jaccard_join`); a stream extends
one join per batch.  The quadratic scan and the prefix-filtered join
survive as differential oracles in :mod:`repro.verify.oracles`.
"""

from __future__ import annotations

import heapq

from ..data.ground_truth import Pair
from ..data.table import Table
from ..exceptions import ConfigurationError
from ..obs import instrument as obs_instrument
from .batch import sparse_jaccard_join
from .edit import edit_distance_within
from .jaccard import jaccard
from .tokenize import qgram_tokens, word_tokens


def _record_tokens(table: Table, use_qgrams: bool) -> list[frozenset[str]]:
    if use_qgrams:
        return [qgram_tokens(table.record_text(r.record_id)) for r in table]
    return [word_tokens(table.record_text(r.record_id)) for r in table]


def similar_pairs(table: Table, threshold: float, tokens: str = "word") -> list[Pair]:
    """All record pairs whose record-level Jaccard is ``>= threshold``.

    Args:
        table: the input table.
        threshold: record-level Jaccard pruning bound ``tau`` (paper uses 0.3
            on ACMPub and 0.2 elsewhere).
        tokens: ``"word"`` (default) or ``"qgram"`` token sets.

    Returns:
        Canonically ordered pairs, sorted for determinism (the join emits
        them sorted).
    """
    if not 0.0 < threshold <= 1.0:
        raise ConfigurationError(f"threshold must be in (0, 1], got {threshold}")
    if tokens not in ("word", "qgram"):
        raise ConfigurationError(f"tokens must be 'word' or 'qgram', got {tokens!r}")
    if len(table) < 2:  # explicit empty/singleton fast path: no allocation
        return []
    obs = obs_instrument.current()
    with obs.tracer.span("join.similar_pairs", records=len(table)) as span:
        token_sets = _record_tokens(table, use_qgrams=(tokens == "qgram"))
        pairs = sparse_jaccard_join(token_sets, threshold)
        span.set_attribute("pairs", len(pairs))
    if obs.metrics:
        obs.registry.counter(
            "repro_join_candidate_pairs_total",
            "candidate pairs emitted by the pruning join",
        ).inc(len(pairs))
    return pairs


def similar_pairs_edit(
    table: Table,
    threshold: float,
    prefilter_overlap: float = 0.05,
) -> list[Pair]:
    """Record pairs whose record-level *edit similarity* is ``>= threshold``.

    Section 3.1 allows either Jaccard or edit similarity as the pruning
    score.  Edit similarity on whole records is expensive, so candidates
    are prefiltered: ``EDS(a, b) >= t`` bounds the length gap by
    ``(1 - t) * max(|a|, |b|)``, and any surviving pair still shares tokens
    unless the strings are short — the token prefilter (*prefilter_overlap*
    record-level Jaccard) is intentionally loose and only exists to skip
    hopeless pairs before the banded edit-distance verification.
    """
    if not 0.0 < threshold <= 1.0:
        raise ConfigurationError(f"threshold must be in (0, 1], got {threshold}")
    texts = [table.record_text(record.record_id) for record in table]
    lengths = [len(text) for text in texts]
    candidates = (
        sparse_jaccard_join(_record_tokens(table, use_qgrams=False), prefilter_overlap)
        if prefilter_overlap > 0
        else [(i, j) for i in range(len(table)) for j in range(i + 1, len(table))]
    )
    pairs: list[Pair] = []
    for i, j in candidates:
        longest = max(lengths[i], lengths[j])
        if longest == 0:
            pairs.append((i, j))
            continue
        # The largest distance that edit_similarity's own float expression
        # accepts: int((1 - t) * longest) alone can round one short.
        max_distance = int((1.0 - threshold) * longest) + 1
        while max_distance > 0 and 1.0 - max_distance / longest < threshold:
            max_distance -= 1
        if abs(lengths[i] - lengths[j]) > max_distance:
            continue
        if edit_distance_within(texts[i], texts[j], max_distance) is not None:
            pairs.append((i, j))
    return pairs


def top_k_pairs(table: Table, k: int, tokens: str = "word") -> list[tuple[float, Pair]]:
    """The *k* most similar record pairs by record-level Jaccard.

    A convenience for exploratory use and for tests that need a small, dense
    pair set regardless of threshold tuning.
    """
    if k <= 0:
        raise ConfigurationError(f"k must be positive, got {k}")
    token_sets = _record_tokens(table, use_qgrams=(tokens == "qgram"))
    heap: list[tuple[float, Pair]] = []
    n = len(token_sets)
    for i in range(n):
        for j in range(i + 1, n):
            score = jaccard(token_sets[i], token_sets[j])
            if len(heap) < k:
                heapq.heappush(heap, (score, (i, j)))
            elif score > heap[0][0]:
                heapq.heapreplace(heap, (score, (i, j)))
    return sorted(heap, reverse=True)
