"""Plan rendering and predicted-vs-observed cost reporting.

:func:`render_plan` draws the plan tree — one line per knob with the
predicted cost of the winner and every rejected alternative, so a reader
can audit each decision.  After a traced run, :func:`prediction_report`
joins the plan's per-stage predictions against the observed wall seconds
in the obs span tree (:meth:`repro.obs.trace.Tracer.export`) and reports
per-stage prediction error — the feedback loop's raw material
(:mod:`repro.plan.feedback`).
"""

from __future__ import annotations

from typing import Any

from ..obs.trace import walk
from .planner import Plan

#: Cost-model stage -> the obs span whose wall seconds observe it.
STAGE_SPANS = {
    "vectorize_batch": "resolve.vectorize",
    "vectorize_scalar": "resolve.vectorize",
    "construct": "resolve.construct",
    "selection_scratch": "selection.run",
    "selection_incremental": "selection.run",
}


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds * 1e6:.0f}us"


def render_plan(plan: Plan) -> str:
    """The plan as an auditable text tree."""
    stats = plan.stats
    profile_kind = "calibrated" if plan.calibrated else "defaults"
    lines = [
        f"plan for {stats.rows} rows x {stats.attrs} attrs "
        f"(~{stats.est_pairs} est. pairs, ~{stats.avg_tokens:.1f} tokens/record)"
        f"  [profile: {profile_kind}]"
    ]
    for index, decision in enumerate(plan.decisions):
        last = index == len(plan.decisions) - 1
        branch = "└─" if last else "├─"
        stem = "   " if last else "│  "
        cost = (
            f"  predicted {_fmt_seconds(decision.prediction.seconds)}"
            if decision.prediction is not None
            else ""
        )
        lines.append(f"{branch} {decision.knob} = {decision.chosen}{cost}")
        if decision.alternatives:
            rejected = ", ".join(
                f"{value} {_fmt_seconds(seconds)}"
                for value, seconds in decision.alternatives
            )
            lines.append(f"{stem}   rejected: {rejected}")
        if decision.reason:
            lines.append(f"{stem}   why: {decision.reason}")
    lines.append(
        f"predicted planner-visible total: "
        f"{_fmt_seconds(plan.predicted_total_seconds())}"
    )
    return "\n".join(lines)


def observed_stage_seconds(spans: list[dict]) -> dict[str, float]:
    """Observed wall seconds per span name, summed over occurrences."""
    observed: dict[str, float] = {}
    for _, span in walk(spans):
        name = span.get("name")
        seconds = float(span.get("wall_seconds", 0.0))
        observed[name] = observed.get(name, 0.0) + seconds
    return observed


def prediction_report(plan: Plan, spans: list[dict]) -> list[dict[str, Any]]:
    """Per-stage predicted vs observed costs for a traced run.

    Returns one row per plan decision whose stage has an observing span
    in *spans*: stage, span name, predicted and observed seconds, and
    the signed relative error ``(predicted - observed) / observed``
    (``None`` when the observation is ~0).
    """
    observed = observed_stage_seconds(spans)
    rows: list[dict[str, Any]] = []
    for decision in plan.decisions:
        prediction = decision.prediction
        if prediction is None:
            continue
        span_name = STAGE_SPANS.get(prediction.stage)
        if span_name is None or span_name not in observed:
            continue
        actual = observed[span_name]
        error = (
            (prediction.seconds - actual) / actual if actual > 1e-9 else None
        )
        rows.append(
            {
                "knob": decision.knob,
                "stage": prediction.stage,
                "span": span_name,
                "predicted_seconds": prediction.seconds,
                "observed_seconds": actual,
                "relative_error": error,
            }
        )
    return rows


def render_prediction_report(plan: Plan, spans: list[dict]) -> str:
    """The prediction report as an aligned text table."""
    rows = prediction_report(plan, spans)
    if not rows:
        return "no observed spans matched the plan's stages (was tracing on?)"
    header = f"{'stage':<24} {'span':<18} {'predicted':>10} {'observed':>10} {'error':>8}"
    lines = [header, "-" * len(header)]
    for row in rows:
        error = row["relative_error"]
        error_text = f"{error * 100:+.0f}%" if error is not None else "n/a"
        lines.append(
            f"{row['stage']:<24} {row['span']:<18} "
            f"{_fmt_seconds(row['predicted_seconds']):>10} "
            f"{_fmt_seconds(row['observed_seconds']):>10} "
            f"{error_text:>8}"
        )
    return "\n".join(lines)


__all__ = [
    "STAGE_SPANS",
    "observed_stage_seconds",
    "prediction_report",
    "render_plan",
    "render_prediction_report",
]
