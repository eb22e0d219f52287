"""Property tests for the metrics registry and its histogram bucketing.

Hypothesis pins the bucketing contract (every observation lands in
exactly one bucket, chosen by the documented ``v <= edge`` rule); the
registry tests pin get-or-create and its type and boundary checks.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import ObservabilityError
from repro.obs import (
    COUNT_BOUNDARIES,
    Histogram,
    MetricsRegistry,
    SECONDS_BOUNDARIES,
)

EDGES = (0.5, 1.0, 5.0)

values = st.floats(
    min_value=-10.0, max_value=1000.0, allow_nan=False, allow_infinity=False
)


class TestHistogramBucketing:
    @given(values)
    def test_every_observation_lands_in_exactly_one_bucket(self, value):
        histogram = Histogram("h", boundaries=EDGES)
        histogram.observe(value)
        assert sum(histogram.bucket_counts) == 1
        assert len(histogram.bucket_counts) == len(EDGES) + 1

    @given(values)
    def test_bucket_choice_matches_the_documented_rule(self, value):
        histogram = Histogram("h", boundaries=EDGES)
        histogram.observe(value)
        expected = next(
            (i for i, edge in enumerate(EDGES) if value <= edge), len(EDGES)
        )
        assert histogram.bucket_counts[expected] == 1

    @given(st.lists(values, min_size=1, max_size=30))
    def test_count_sum_min_max_track_the_stream(self, stream):
        histogram = Histogram("h", boundaries=EDGES)
        for value in stream:
            histogram.observe(value)
        assert histogram.count == len(stream)
        assert histogram.sum == pytest.approx(sum(stream))
        assert histogram.min == min(stream)
        assert histogram.max == max(stream)
        assert histogram.mean == pytest.approx(sum(stream) / len(stream))

    def test_boundaries_must_be_strictly_increasing(self):
        with pytest.raises(ObservabilityError):
            Histogram("h", boundaries=(1.0, 1.0, 2.0))
        with pytest.raises(ObservabilityError):
            Histogram("h", boundaries=())


class TestRegistry:
    def test_get_or_create_returns_the_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert registry.counter("c", selector="a") is not registry.counter(
            "c", selector="b"
        )

    def test_kind_mismatch_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("c")
        with pytest.raises(ObservabilityError, match="already registered"):
            registry.gauge("c")

    def test_histogram_boundary_rerequest_must_match(self):
        registry = MetricsRegistry()
        registry.histogram("h", boundaries=SECONDS_BOUNDARIES)
        with pytest.raises(ObservabilityError, match="different boundaries"):
            registry.histogram("h", boundaries=COUNT_BOUNDARIES)

    def test_counter_cannot_decrease(self):
        with pytest.raises(ObservabilityError, match="cannot decrease"):
            MetricsRegistry().counter("c").inc(-1)

    def test_family_lists_label_variants_sorted(self):
        registry = MetricsRegistry()
        registry.counter("rounds", selector="single-path").inc()
        registry.counter("rounds", selector="power").inc(2)
        family = registry.family("rounds")
        assert [dict(m.labels)["selector"] for m in family] == [
            "power", "single-path",
        ]
