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

from ..data.ground_truth import Pair
from ..data.table import Table
from ..exceptions import ConfigurationError
from ..obs import instrument as obs_instrument
from .batch import sparse_jaccard_join
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
