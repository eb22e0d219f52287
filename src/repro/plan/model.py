"""Per-stage analytic cost models for the pipeline planner.

Every pure-performance decision the planner makes reduces to "which of
these interchangeable implementations finishes first on *this* host for
*this* input?"  The models here answer that with two-coefficient affine
predictors over closed-form work units:

    seconds(stage, units) = c0 + c1 * units

``c0`` is the fixed setup cost of one invocation (index allocation, numpy
dispatch, process-pool bookkeeping) and ``c1`` the marginal cost per work
unit (a token comparison, a pair-attribute similarity, a vertex-pair
dominance test).  The *shape* of each stage's work-unit formula is fixed
analytically below; only the coefficients vary by host and come from
:mod:`repro.plan.calibrate` (measured) or the documented uncalibrated
defaults.

Two laws are load-bearing and enforced by construction (the hypothesis
suite in ``tests/test_plan_model.py`` pins them):

* **non-negativity** — a predicted cost is never negative, so a planner
  comparison can never be won by an impossible negative runtime;
* **monotonicity** — every work-unit formula is non-decreasing in rows,
  tokens, pairs, and shards, and ``predict`` is non-decreasing in units,
  so "more data can only cost more" holds for every stage.

Coefficients are clamped to ``>= 0`` when a model is built, which is what
makes both laws theorems instead of hopes (least-squares fits on noisy
micro-benchmarks can produce slightly negative intercepts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..exceptions import ConfigurationError

#: Every stage the planner can price.  ``vectorize_*`` are the two
#: similarity substrates; ``selection_*`` the two selection-loop engines;
#: ``construct`` the dominance-graph build; ``shard_dispatch`` the
#: per-task overhead of the shard executor; ``stream_extend`` the token
#: index's incremental extension.
STAGES = (
    "vectorize_batch",
    "vectorize_scalar",
    "construct",
    "selection_scratch",
    "selection_incremental",
    "shard_dispatch",
    "stream_extend",
)


@dataclass(frozen=True)
class CostModel:
    """One stage's affine cost predictor: ``c0 + c1 * units`` seconds.

    Coefficients are clamped non-negative at construction, which makes
    :meth:`predict` non-negative and monotone non-decreasing in *units*
    by construction.
    """

    stage: str
    c0: float
    c1: float

    def __post_init__(self) -> None:
        if self.stage not in STAGES:
            raise ConfigurationError(
                f"unknown cost-model stage {self.stage!r}; known: {STAGES}"
            )
        object.__setattr__(self, "c0", max(0.0, float(self.c0)))
        object.__setattr__(self, "c1", max(0.0, float(self.c1)))

    def predict(self, units: float) -> float:
        """Predicted wall seconds for *units* work units (>= 0, monotone)."""
        return self.c0 + self.c1 * max(0.0, float(units))


@dataclass(frozen=True)
class StagePrediction:
    """One priced stage: the work units and the predicted seconds."""

    stage: str
    units: float
    seconds: float


# --------------------------------------------------------------------------- #
# Work-unit formulas (the analytic shapes; monotone by inspection)
# --------------------------------------------------------------------------- #


def vectorize_units(pairs: int, attrs: int) -> float:
    """Similarity vectors: one unit per (pair, attribute) cell."""
    return max(0, int(pairs)) * max(1, int(attrs))


def construct_units(vertices: int) -> float:
    """Dominance construction: all-pairs vector comparison over vertices."""
    vertices = max(0, int(vertices))
    return float(vertices) * vertices


def selection_scratch_units(vertices: int) -> float:
    """Per-round scratch rebuilds: ~rounds x per-round cover, ~O(v^2)."""
    vertices = max(0, int(vertices))
    return float(vertices) * vertices


def selection_incremental_units(vertices: int) -> float:
    """Warm-started covers: measured to grow ~v^1.5 on the bench grid."""
    vertices = max(0, int(vertices))
    return float(vertices) * math.sqrt(vertices)


def shard_dispatch_units(shards: int) -> float:
    """Executor overhead: one unit per dispatched task."""
    return float(max(0, int(shards)))


def stream_extend_units(new_rows: int, avg_tokens: float) -> float:
    """Token-index extension: linear in the new rows' tokens."""
    return max(0, int(new_rows)) * max(1.0, avg_tokens)


#: Stage name -> the exact work-unit formula the planner must use, so the
#: calibration fit and the plan-time prediction can never disagree on
#: shape.  (Signatures differ; the planner passes the right operands.)
UNIT_FORMULAS = {
    "vectorize_batch": vectorize_units,
    "vectorize_scalar": vectorize_units,
    "construct": construct_units,
    "selection_scratch": selection_scratch_units,
    "selection_incremental": selection_incremental_units,
    "shard_dispatch": shard_dispatch_units,
    "stream_extend": stream_extend_units,
}


def fit_affine(samples: list[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares ``(c0, c1)`` for ``seconds ~ c0 + c1 * units``.

    Coefficients are clamped to ``>= 0`` (see module docstring).  With a
    single sample the intercept is attributed to zero and the slope to
    the whole measurement — the conservative reading for a planner that
    must stay monotone.
    """
    if not samples:
        raise ConfigurationError("fit_affine needs at least one sample")
    if len(samples) == 1:
        units, seconds = samples[0]
        return 0.0, max(0.0, seconds / units if units > 0 else 0.0)
    import numpy as np

    units = np.array([u for u, _ in samples], dtype=np.float64)
    seconds = np.array([s for _, s in samples], dtype=np.float64)
    design = np.stack([np.ones_like(units), units], axis=1)
    (c0, c1), *_ = np.linalg.lstsq(design, seconds, rcond=None)
    return max(0.0, float(c0)), max(0.0, float(c1))


__all__ = [
    "STAGES",
    "UNIT_FORMULAS",
    "CostModel",
    "StagePrediction",
    "construct_units",
    "fit_affine",
    "selection_incremental_units",
    "selection_scratch_units",
    "shard_dispatch_units",
    "stream_extend_units",
    "vectorize_units",
]
