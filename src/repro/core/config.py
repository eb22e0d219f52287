"""End-to-end pipeline configuration for :class:`~repro.core.resolver.PowerResolver`."""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import ConfigurationError
from ..selection.error_tolerant import ErrorPolicy


@dataclass(frozen=True)
class PowerConfig:
    """Every knob of the Power/Power+ pipeline, with the paper's defaults.

    No knob picks an implementation.  Similarity vectors always come from
    :func:`repro.similarity.batch.batch_similarity_matrix`, and selection
    always runs the incremental engine over the graph's reachability
    index; a graph too large for the index falls back to the reference
    paths on its own (see :meth:`repro.graph.dag.OrderedGraph.build_reachability`).

    Attributes:
        similarity: similarity function applied to every attribute
            (``"bigram"`` — §7.1 default — ``"jaccard"`` or ``"edit"``), or a
            tuple naming one function per attribute.
        attribute_threshold: per-attribute clamp ``tau`` (Table 2 uses 0.2).
        pruning_threshold: record-level Jaccard bound for candidate pairs
            (the paper uses 0.3 on ACMPub, 0.2 elsewhere).
        join_tokens: token sets for the pruning join — ``"word"`` (default)
            or ``"qgram"``.  The join itself has one implementation, the
            inverted-list :func:`repro.similarity.batch.sparse_jaccard_join`,
            on the serial and sharded paths alike.
        epsilon: grouping threshold; ``None`` disables grouping (§4.2's
            default in the experiments is 0.1).
        grouping_algorithm: ``"split"`` (Algorithm 2) or ``"greedy"``
            (Appendix A).
        selector: ``"power"`` (topological sorting — the paper's headline
            algorithm), ``"single-path"``, ``"multi-path"``, or ``"random"``.
        error_tolerant: run as Power+ — tolerate low-confidence answers and
            settle them with the §6 histogram step.
        confidence_threshold / num_bins / binning: the Power+ knobs.
        assignments: workers per question, ``z`` (paper: 5).
        seed: base seed for every stochastic component.
        shards: number of shard work units for
            :class:`~repro.shard.ShardedResolver` (``None`` → one per
            worker process).  In the exact mode this is the number of
            data-parallel slices (any value yields bit-identical results);
            in the independent mode it is the number of per-shard
            resolution loops.
        shard_max_pairs: size cap for the independent-mode partitioner —
            connected components of the candidate graph holding more pairs
            than this are split on their weakest edges (``None`` → an
            automatic ``ceil(pairs / shards)`` cap).
        shard_retries: re-submissions per failed shard task before the
            executor falls back to in-process execution.
    """

    similarity: str | tuple[str, ...] = "bigram"
    attribute_threshold: float = 0.2
    pruning_threshold: float = 0.2
    join_tokens: str = "word"
    epsilon: float | None = 0.1
    grouping_algorithm: str = "split"
    selector: str = "power"
    error_tolerant: bool = True
    confidence_threshold: float = 0.8
    num_bins: int = 20
    binning: str = "equi-depth"
    assignments: int = 5
    seed: int = 0
    shards: int | None = None
    shard_max_pairs: int | None = None
    shard_retries: int = 2

    def __post_init__(self) -> None:
        if not 0.0 < self.pruning_threshold <= 1.0:
            raise ConfigurationError(
                f"pruning_threshold must be in (0, 1], got {self.pruning_threshold}"
            )
        if self.join_tokens not in ("word", "qgram"):
            raise ConfigurationError(
                f"join_tokens must be 'word' or 'qgram', got {self.join_tokens!r}"
            )
        if self.epsilon is not None and self.epsilon < 0:
            raise ConfigurationError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.assignments < 1:
            raise ConfigurationError(
                f"assignments must be >= 1, got {self.assignments}"
            )
        if self.shards is not None and self.shards < 1:
            raise ConfigurationError(
                f"shards must be >= 1 or None, got {self.shards}"
            )
        if self.shard_max_pairs is not None and self.shard_max_pairs < 1:
            raise ConfigurationError(
                f"shard_max_pairs must be >= 1 or None, got {self.shard_max_pairs}"
            )
        if self.shard_retries < 0:
            raise ConfigurationError(
                f"shard_retries must be >= 0, got {self.shard_retries}"
            )

    def error_policy(self) -> ErrorPolicy | None:
        """The Power+ policy object, or None when running plain Power."""
        if not self.error_tolerant:
            return None
        return ErrorPolicy(
            confidence_threshold=self.confidence_threshold,
            num_bins=self.num_bins,
            binning=self.binning,
        )
