"""End-to-end pipeline configuration for :class:`~repro.core.resolver.PowerResolver`."""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real

from ..exceptions import ConfigurationError
from ..graph.grouping import GROUPING_ALGORITHMS
from ..selection import SELECTORS
from ..selection.error_tolerant import ErrorPolicy
from ..similarity.vectors import SimilarityConfig


@dataclass(frozen=True)
class PowerConfig:
    """Every knob of the Power/Power+ pipeline, with the paper's defaults.

    No knob picks an implementation.  Similarity vectors always come from
    :func:`repro.similarity.batch.batch_similarity_matrix`, and selection
    always runs the incremental engine over the graph's reachability
    index (:attr:`repro.graph.dag.OrderedGraph.reachability`).

    Construction checks every field, so a bad config fails before any
    stage runs: a value of the wrong type (a bool where a number is
    expected included) raises :class:`TypeError`, and a value out of range
    or an unknown name raises :class:`~repro.exceptions.ConfigurationError`.
    Only a per-attribute *similarity* tuple waits for a schema to check
    its length against.

    Attributes:
        similarity: similarity function applied to every attribute
            (``"bigram"`` — §7.1 default — ``"jaccard"`` or ``"edit"``), or a
            tuple naming one function per attribute.
        attribute_threshold: per-attribute clamp ``tau`` (Table 2 uses 0.2).
        pruning_threshold: record-level Jaccard bound for candidate pairs
            (the paper uses 0.3 on ACMPub, 0.2 elsewhere).
        join_tokens: token sets for the pruning join — ``"word"`` (default)
            or ``"qgram"``.  The join itself has one implementation, the
            inverted-list :func:`repro.similarity.batch.sparse_jaccard_join`.
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

    def __post_init__(self) -> None:
        functions = (self.similarity,) if isinstance(self.similarity, str) else self.similarity
        if not isinstance(functions, tuple) or not all(
            isinstance(name, str) for name in functions
        ):
            raise TypeError(
                "similarity must be a function name or a tuple of them, "
                f"got {self.similarity!r}"
            )
        for name in ("attribute_threshold", "pruning_threshold", "confidence_threshold"):
            _check_type(name, Real, "a number", getattr(self, name))
        if self.epsilon is not None:
            _check_type("epsilon", Real, "a number or None", self.epsilon)
        for name in ("num_bins", "assignments", "seed"):
            _check_type(name, Integral, "an integer", getattr(self, name))
        for name in ("join_tokens", "grouping_algorithm", "selector", "binning"):
            _check_type(name, str, "a string", getattr(self, name))
        _check_type("error_tolerant", bool, "a boolean", self.error_tolerant)

        SimilarityConfig(functions, self.attribute_threshold)
        if not 0.0 < self.pruning_threshold <= 1.0:
            raise ConfigurationError(
                f"pruning_threshold must be in (0, 1], got {self.pruning_threshold}"
            )
        if self.join_tokens not in ("word", "qgram"):
            raise ConfigurationError(
                f"join_tokens must be 'word' or 'qgram', got {self.join_tokens!r}"
            )
        if self.epsilon is not None and not self.epsilon >= 0:
            raise ConfigurationError(f"epsilon must be >= 0, got {self.epsilon}")
        for name, known in (
            ("grouping_algorithm", GROUPING_ALGORITHMS),
            ("selector", SELECTORS),
        ):
            if getattr(self, name) not in known:
                raise ConfigurationError(
                    f"unknown {name} {getattr(self, name)!r}; "
                    f"known: {', '.join(sorted(known))}"
                )
        ErrorPolicy(self.confidence_threshold, self.num_bins, self.binning)
        if self.assignments < 1:
            raise ConfigurationError(
                f"assignments must be >= 1, got {self.assignments}"
            )
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")

    def error_policy(self) -> ErrorPolicy | None:
        """The Power+ policy object, or None when running plain Power."""
        if not self.error_tolerant:
            return None
        return ErrorPolicy(
            confidence_threshold=self.confidence_threshold,
            num_bins=self.num_bins,
            binning=self.binning,
        )


def _check_type(name: str, kind: type, label: str, value) -> None:
    """Refuse *value* unless it is a *kind*; a bool passes only as a bool."""
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise TypeError(f"{name} must be {label}, got {value!r}")
