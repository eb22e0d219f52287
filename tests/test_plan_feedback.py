"""Predicted-vs-observed reporting and the bounded feedback fold."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.plan.calibrate import default_profile
from repro.plan.explain import (
    observed_stage_seconds,
    prediction_report,
    render_plan,
    render_prediction_report,
)
from repro.plan.feedback import MAX_FOLD_FACTOR, fold_observations
from repro.plan.planner import TableStats, plan_for_stats

STATS = TableStats(rows=500, attrs=4, avg_tokens=8.0, est_pairs=400)


def spans_for(vectorize_seconds: float = 0.005) -> list[dict]:
    """A minimal exported span tree shaped like a traced resolve."""
    return [
        {
            "name": "resolve",
            "wall_seconds": vectorize_seconds + 0.025,
            "children": [
                {"name": "resolve.join", "wall_seconds": 0.01,
                 "children": []},
                {"name": "resolve.vectorize", "wall_seconds": vectorize_seconds,
                 "children": []},
                {"name": "resolve.construct", "wall_seconds": 0.005,
                 "children": []},
            ],
        },
        {"name": "selection.run", "wall_seconds": 0.01, "children": []},
    ]


class TestExplain:
    def test_observed_seconds_sum_over_occurrences(self):
        spans = spans_for() + spans_for()
        observed = observed_stage_seconds(spans)
        assert observed["resolve.join"] == pytest.approx(0.02)
        assert observed["selection.run"] == pytest.approx(0.02)

    def test_prediction_report_joins_plan_to_spans(self):
        plan = plan_for_stats(STATS, default_profile())
        rows = prediction_report(plan, spans_for())
        stages = {row["stage"] for row in rows}
        # The chosen vectorize/selection stages all have spans;
        # shard_dispatch and stream_extend have none and must not appear.
        assert any(stage.startswith("vectorize_") for stage in stages)
        assert not any(stage.startswith("shard") for stage in stages)
        for row in rows:
            assert row["observed_seconds"] > 0
            assert row["relative_error"] is not None

    def test_render_report_mentions_every_joined_stage(self):
        plan = plan_for_stats(STATS, default_profile())
        text = render_prediction_report(plan, spans_for())
        for row in prediction_report(plan, spans_for()):
            assert row["stage"] in text

    def test_render_report_without_spans_says_so(self):
        plan = plan_for_stats(STATS, default_profile())
        assert "no observed spans" in render_prediction_report(plan, [])

    def test_render_plan_is_complete(self):
        plan = plan_for_stats(STATS, default_profile())
        text = render_plan(plan)
        for knob in plan.knobs():
            assert knob in text
        assert "[profile: defaults]" in text


class TestFeedback:
    def test_fold_moves_coefficients_toward_observation(self):
        profile = default_profile()
        plan = plan_for_stats(STATS, profile)
        stage = plan.decision("use_batch_similarity").prediction.stage
        predicted = plan.decision("use_batch_similarity").prediction.seconds
        # Observe vectorization running 2x slower than predicted.
        folded = fold_observations(profile, plan, spans_for(2 * predicted))
        before = profile.model(stage)
        after = folded.model(stage)
        # learning_rate 0.5 toward a 2x ratio -> exactly 1.5x.
        assert after.c1 == pytest.approx(before.c1 * 1.5)
        assert folded.meta["feedback_folds"] == 1
        assert stage in folded.meta["last_fold_stages"]

    def test_fold_is_bounded(self):
        profile = default_profile()
        plan = plan_for_stats(STATS, profile)
        predicted = plan.decision("use_batch_similarity").prediction.seconds
        stage = plan.decision("use_batch_similarity").prediction.stage
        # A 1000x anomaly is clamped to MAX_FOLD_FACTOR before the
        # learning rate applies.
        folded = fold_observations(
            profile, plan, spans_for(1000 * predicted), learning_rate=1.0
        )
        before = profile.model(stage)
        after = folded.model(stage)
        assert after.c1 <= before.c1 * MAX_FOLD_FACTOR + 1e-12

    def test_input_profile_never_mutated(self):
        profile = default_profile()
        payload_before = profile.to_payload()
        plan = plan_for_stats(STATS, profile)
        fold_observations(profile, plan, spans_for())
        assert profile.to_payload() == payload_before

    def test_invalid_learning_rate_rejected(self):
        profile = default_profile()
        plan = plan_for_stats(STATS, profile)
        for rate in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigurationError):
                fold_observations(profile, plan, spans_for(), learning_rate=rate)
