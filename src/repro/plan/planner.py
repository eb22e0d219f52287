"""The cost-based planner: table stats + profile -> an immutable Plan.

The planner owns every **pure-performance** knob of the pipeline — the
settings where all alternatives produce bit-identical results and only
wall-clock differs.  For each knob it prices every alternative with the
calibrated cost models, keeps the cheapest, and records the rejected
alternatives with their predicted costs so ``repro plan --explain`` can
show *why* a choice was made.

The transparency contract (enforced by ``check_plan_transparency`` in
:mod:`repro.verify.oracles`): :func:`apply_plan` may only rewrite the
knobs in :data:`PLANNABLE_KNOBS`.  Results, transcripts, and billing of
a planned run are bit-identical to the static defaults — the planner
can make a run slower or faster, never different.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..exceptions import ConfigurationError
from .calibrate import CalibrationProfile
from .model import UNIT_FORMULAS, StagePrediction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.config import PowerConfig
    from ..data.table import Table

#: The only config fields :func:`apply_plan` is allowed to rewrite.
#: Everything else — thresholds, epsilon, selector, assignments, seeds —
#: is semantic and off-limits; touching one is the ``plan-changes-results``
#: mutant the verification battery exists to catch.
PLANNABLE_KNOBS = (
    "use_batch_similarity",
    "use_incremental_selection",
    "reachability_index",
    "shards",
    "stream_batch_size",
)

#: Knobs that live outside :class:`~repro.core.config.PowerConfig` (they
#: parameterize the streaming/serve layers instead) — applied by their
#: consumers, skipped by :func:`apply_plan`.
_NON_CONFIG_KNOBS = ("stream_batch_size",)

#: Bounds for the planned streaming batch size.
MIN_STREAM_BATCH = 50
MAX_STREAM_BATCH = 2000

#: Target per-batch seconds the stream batch sizing aims for: large enough
#: to amortize per-batch overhead, small enough to checkpoint often.
STREAM_BATCH_TARGET_SECONDS = 0.5


@dataclass(frozen=True)
class TableStats:
    """The input statistics the planner prices plans against.

    Attributes:
        rows: record count.
        attrs: attribute count (similarity-vector width).
        avg_tokens: mean record-level token-set size (from a seeded
            sample when the table is large).
        est_pairs: estimated candidate pairs surviving the pruning join,
            from a sampled mini-join scaled quadratically.
    """

    rows: int
    attrs: int
    avg_tokens: float
    est_pairs: int

    @classmethod
    def from_table(
        cls,
        table: "Table",
        threshold: float = 0.2,
        tokens: str = "word",
        sample: int = 200,
        seed: int = 0,
    ) -> "TableStats":
        """Measure *table* with a seeded bounded-cost sample.

        Token counts come from up to *sample* records; the candidate-pair
        estimate runs the production join on that sample and scales the
        pair count by ``(rows / sample)^2`` — the standard sampling
        estimator for a self-join.  Cost is bounded by the sample size,
        independent of table size.
        """
        import numpy as np

        from ..similarity.tokenize import qgram_tokens, word_tokens

        tokenizer = qgram_tokens if tokens == "qgram" else word_tokens
        rows = len(table)
        if rows == 0:
            return cls(rows=0, attrs=table.num_attributes, avg_tokens=1.0, est_pairs=0)
        record_ids = [record.record_id for record in table]
        if rows > sample:
            rng = np.random.default_rng(seed)
            chosen = sorted(rng.choice(rows, size=sample, replace=False).tolist())
            record_ids = [record_ids[index] for index in chosen]
        token_sets = [
            tokenizer(table.record_text(record_id)) for record_id in record_ids
        ]
        avg_tokens = sum(len(t) for t in token_sets) / len(token_sets)
        from ..similarity.batch import sparse_jaccard_join

        sampled_pairs = len(sparse_jaccard_join(token_sets, threshold))
        scale = rows / len(token_sets)
        est_pairs = max(1, int(round(sampled_pairs * scale * scale)))
        return cls(
            rows=rows,
            attrs=table.num_attributes,
            avg_tokens=avg_tokens,
            est_pairs=est_pairs,
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "rows": self.rows,
            "attrs": self.attrs,
            "avg_tokens": round(self.avg_tokens, 3),
            "est_pairs": self.est_pairs,
        }


@dataclass(frozen=True)
class PlanDecision:
    """One knob's chosen value, its predicted cost, and the losers.

    Attributes:
        knob: the knob name (member of :data:`PLANNABLE_KNOBS`).
        chosen: the winning value.
        prediction: the priced stage behind the choice (``None`` for
            derived knobs with no own stage, e.g. ``reachability_index``).
        alternatives: ``(value, predicted_seconds)`` for every rejected
            alternative, cheapest first.
        reason: one human-readable sentence.
    """

    knob: str
    chosen: Any
    prediction: StagePrediction | None
    alternatives: tuple[tuple[Any, float], ...] = ()
    reason: str = ""

    def as_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "knob": self.knob,
            "chosen": self.chosen,
            "reason": self.reason,
            "alternatives": [
                {"value": value, "seconds": seconds}
                for value, seconds in self.alternatives
            ],
        }
        if self.prediction is not None:
            payload["stage"] = self.prediction.stage
            payload["units"] = self.prediction.units
            payload["seconds"] = self.prediction.seconds
        return payload


@dataclass(frozen=True)
class Plan:
    """An immutable pipeline plan: every performance knob, priced.

    Attributes:
        stats: the table statistics the plan was built from.
        calibrated: whether the profile behind the predictions was
            measured on this host (vs the documented defaults).
        decisions: one :class:`PlanDecision` per knob.
        meta: provenance (profile host, planner inputs).
    """

    stats: TableStats
    calibrated: bool
    decisions: tuple[PlanDecision, ...]
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for decision in self.decisions:
            if decision.knob not in PLANNABLE_KNOBS:
                raise ConfigurationError(
                    f"plan decides non-performance knob {decision.knob!r}; "
                    f"plannable knobs: {PLANNABLE_KNOBS}"
                )

    def decision(self, knob: str) -> PlanDecision:
        for candidate in self.decisions:
            if candidate.knob == knob:
                return candidate
        raise ConfigurationError(f"plan has no decision for knob {knob!r}")

    def knob(self, name: str) -> Any:
        return self.decision(name).chosen

    def knobs(self) -> dict[str, Any]:
        return {decision.knob: decision.chosen for decision in self.decisions}

    def predicted_total_seconds(self) -> float:
        return sum(
            decision.prediction.seconds
            for decision in self.decisions
            if decision.prediction is not None
        )

    def to_payload(self) -> dict[str, Any]:
        return {
            "stats": self.stats.as_dict(),
            "calibrated": self.calibrated,
            "decisions": [decision.as_dict() for decision in self.decisions],
            "predicted_total_seconds": self.predicted_total_seconds(),
            "meta": dict(self.meta),
        }


# --------------------------------------------------------------------------- #
# Planning
# --------------------------------------------------------------------------- #


def _pick(
    knob: str,
    priced: list[tuple[Any, StagePrediction]],
    reason: str,
) -> PlanDecision:
    """The cheapest alternative wins; ties break to the first listed."""
    ranked = sorted(priced, key=lambda item: item[1].seconds)
    chosen_value, chosen_prediction = ranked[0]
    return PlanDecision(
        knob=knob,
        chosen=chosen_value,
        prediction=chosen_prediction,
        alternatives=tuple(
            (value, prediction.seconds) for value, prediction in ranked[1:]
        ),
        reason=reason,
    )


def _stage_prediction(
    profile: CalibrationProfile, stage: str, *operands: float
) -> StagePrediction:
    units = UNIT_FORMULAS[stage](*operands)
    return StagePrediction(
        stage=stage, units=units, seconds=profile.predict(stage, units)
    )


def choose_vectorize(
    stats: TableStats, profile: CalibrationProfile
) -> PlanDecision:
    priced = [
        (
            True,
            _stage_prediction(
                profile, "vectorize_batch", stats.est_pairs, stats.attrs
            ),
        ),
        (
            False,
            _stage_prediction(
                profile, "vectorize_scalar", stats.est_pairs, stats.attrs
            ),
        ),
    ]
    return _pick(
        "use_batch_similarity",
        priced,
        f"cheapest similarity substrate for ~{stats.est_pairs} pairs "
        f"x {stats.attrs} attributes",
    )


def choose_selection(
    stats: TableStats, profile: CalibrationProfile
) -> tuple[PlanDecision, PlanDecision]:
    """The selection engine and the reachability index that serves it."""
    vertices = stats.est_pairs
    priced = [
        (True, _stage_prediction(profile, "selection_incremental", vertices)),
        (False, _stage_prediction(profile, "selection_scratch", vertices)),
    ]
    engine = _pick(
        "use_incremental_selection",
        priced,
        f"cheapest selection engine for ~{vertices} graph vertices",
    )
    # The packed reachability index only pays for itself on the
    # incremental path; the scratch engine never consults it.
    reachability = PlanDecision(
        knob="reachability_index",
        chosen="auto" if engine.chosen else "off",
        prediction=None,
        reason=(
            "sized by the default byte budget for the incremental engine"
            if engine.chosen
            else "scratch engine never consults the index"
        ),
    )
    return engine, reachability


def choose_shards(
    stats: TableStats,
    profile: CalibrationProfile,
    workers: int | None,
) -> PlanDecision:
    """Shard count: balance parallel speedup against dispatch overhead.

    Models the priced parallel work (vectorize) as perfectly divisible
    across ``min(shards, workers)`` lanes, plus the calibrated per-task
    dispatch overhead for every shard.  More shards than workers
    still helps real skew (finer work units), so candidates go up to
    ``8 x workers``; the model's dispatch term is what stops the blowup.
    """
    lanes = max(1, workers or 1)
    parallel_seconds = _stage_prediction(
        profile, "vectorize_batch", stats.est_pairs, stats.attrs
    ).seconds
    candidates = sorted({lanes, 2 * lanes, 4 * lanes, 8 * lanes})
    priced = []
    for shards in candidates:
        dispatch = _stage_prediction(profile, "shard_dispatch", shards)
        total = parallel_seconds / min(shards, lanes) + dispatch.seconds
        priced.append(
            (shards, StagePrediction("shard_dispatch", dispatch.units, total))
        )
    return _pick(
        "shards",
        priced,
        f"parallel work / {lanes} lane(s) + per-task dispatch overhead",
    )


def choose_stream_batch(
    stats: TableStats, profile: CalibrationProfile
) -> PlanDecision:
    """Batch size targeting ~0.5s of index-extend work per batch."""
    model = profile.model("stream_extend")
    per_row = model.c1 * max(1.0, stats.avg_tokens)
    if per_row <= 0:
        batch = MAX_STREAM_BATCH
    else:
        batch = int(STREAM_BATCH_TARGET_SECONDS / per_row)
    batch = max(MIN_STREAM_BATCH, min(MAX_STREAM_BATCH, batch))
    prediction = _stage_prediction(
        profile, "stream_extend", batch, stats.avg_tokens
    )
    return PlanDecision(
        knob="stream_batch_size",
        chosen=batch,
        prediction=prediction,
        reason=(
            f"targets ~{STREAM_BATCH_TARGET_SECONDS:.1f}s of index-extend "
            f"work per checkpointed batch"
        ),
    )


def plan_for_stats(
    stats: TableStats,
    profile: CalibrationProfile,
    workers: int | None = None,
) -> Plan:
    """Build the full plan for the given statistics and profile."""
    engine, reachability = choose_selection(stats, profile)
    decisions = (
        choose_vectorize(stats, profile),
        engine,
        reachability,
        choose_shards(stats, profile, workers),
        choose_stream_batch(stats, profile),
    )
    return Plan(
        stats=stats,
        calibrated=profile.calibrated,
        decisions=decisions,
        meta={"host": profile.host, "workers": workers},
    )


def plan_for_table(
    table: "Table",
    config: "PowerConfig",
    profile: CalibrationProfile,
    workers: int | None = None,
) -> Plan:
    """Measure *table* and plan for it under *config*'s semantics."""
    stats = TableStats.from_table(
        table,
        threshold=config.pruning_threshold,
        tokens=config.join_tokens,
        seed=config.seed,
    )
    return plan_for_stats(stats, profile, workers=workers)


def apply_plan(config: "PowerConfig", plan: Plan) -> "PowerConfig":
    """The planned clone of *config* — performance knobs only.

    Returns *config* with every plannable knob set to the plan's choice
    and ``plan="off"`` (so the planned clone never re-plans).  Refuses —
    with :class:`~repro.exceptions.ConfigurationError` — to touch any
    field outside :data:`PLANNABLE_KNOBS`; this is the write barrier of
    the transparency contract.
    """
    updates: dict[str, Any] = {}
    for decision in plan.decisions:
        if decision.knob not in PLANNABLE_KNOBS:
            raise ConfigurationError(
                f"plan decides non-performance knob {decision.knob!r}; "
                "refusing to apply it"
            )
        if decision.knob in _NON_CONFIG_KNOBS:
            continue
        updates[decision.knob] = decision.chosen
    # An explicit user shard count outranks the planner's.
    if config.shards is not None:
        updates.pop("shards", None)
    return dataclasses.replace(config, plan="off", **updates)


__all__ = [
    "MAX_STREAM_BATCH",
    "MIN_STREAM_BATCH",
    "PLANNABLE_KNOBS",
    "STREAM_BATCH_TARGET_SECONDS",
    "Plan",
    "PlanDecision",
    "TableStats",
    "apply_plan",
    "choose_selection",
    "choose_shards",
    "choose_stream_batch",
    "choose_vectorize",
    "plan_for_stats",
    "plan_for_table",
]
