"""Candidate-pair generation: the pruning step of §7.1.

"We compute a similarity score for each pair of records by Jaccard and prune
pairs whose similarity scores are below [tau]."  Every path runs the same
inverted-list join (:class:`repro.similarity.batch.PostingJoin`) — the
machine pruning pass that CrowdER et al. place in front of the crowd —
over the same token sets, :func:`record_tokens`.  A resolve's join stage
(:meth:`repro.core.resolver.PowerResolver.candidate_pairs`) extends a
fresh join once, and a stream extends its one join per batch;
:func:`similar_pairs` is the library entry that joins a whole table
(:func:`~repro.similarity.batch.sparse_jaccard_join`) under its own
``join.similar_pairs`` span.  The quadratic scan and the prefix-filtered
join survive as differential oracles in :mod:`repro.verify.oracles`.
"""

from __future__ import annotations

from ..data.ground_truth import Pair
from ..data.table import Table
from ..exceptions import ConfigurationError
from ..obs import instrument as obs_instrument
from .batch import sparse_jaccard_join
from .tokenize import qgram_tokens, word_tokens


def record_tokens(table: Table, tokens: str = "word", first: int = 0) -> list[frozenset[str]]:
    """The join's token set of each record of *table* from *first* on.

    *tokens* is ``"word"`` or ``"qgram"`` (:attr:`PowerConfig.join_tokens
    <repro.core.config.PowerConfig.join_tokens>`).
    """
    tokenize = qgram_tokens if tokens == "qgram" else word_tokens
    return [tokenize(table.record_text(record_id)) for record_id in range(first, len(table))]


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
        pairs = sparse_jaccard_join(record_tokens(table, tokens), threshold)
        span.set_attribute("pairs", len(pairs))
    if obs.metrics:
        obs.registry.counter(
            "repro_join_candidate_pairs_total",
            "candidate pairs emitted by the pruning join",
        ).inc(len(pairs))
    return pairs
