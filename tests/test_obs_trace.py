"""Tests for the tracing layer: nesting, clocks, threads, and structure."""

from __future__ import annotations

import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import ObservabilityError
from repro.obs import ManualClock, NULL_SPAN, Tracer, structure


class TestNesting:
    def test_lexical_nesting_becomes_span_nesting(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner-1"):
                pass
            with tracer.span("inner-2"):
                with tracer.span("leaf"):
                    pass
        assert structure(tracer.export()) == [
            (0, "outer"), (1, "inner-1"), (1, "inner-2"), (2, "leaf"),
        ]

    def test_sibling_roots_keep_finish_order(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [span["name"] for span in tracer.export()] == ["first", "second"]

    def test_current_tracks_the_innermost_open_span(self):
        tracer = Tracer()
        assert tracer.current() is None
        with tracer.span("outer") as outer:
            assert tracer.current() is outer
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
            assert tracer.current() is outer
        assert tracer.current() is None

    def test_attributes_at_open_and_via_set_attribute(self):
        tracer = Tracer()
        with tracer.span("s", dataset="restaurant") as span:
            span.set_attribute("pairs", 42)
        exported = tracer.export()[0]
        assert exported["attributes"] == {"dataset": "restaurant", "pairs": 42}

    def test_mismatched_close_is_stack_corruption(self):
        tracer = Tracer()
        ctx_a = tracer.span("a")
        ctx_b = tracer.span("b")
        ctx_a.__enter__()
        ctx_b.__enter__()
        with pytest.raises(ObservabilityError, match="span stack corrupted"):
            ctx_a.__exit__(None, None, None)


class TestDisabled:
    def test_disabled_tracer_hands_out_the_null_singleton(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("anything", k="v") is NULL_SPAN

    def test_null_span_supports_the_span_protocol(self):
        with NULL_SPAN as span:
            span.set_attribute("ignored", 1)

    def test_disabled_tracer_exports_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("s"):
            pass
        assert tracer.export() == []


class TestErrors:
    def test_exception_marks_the_span_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError, match="boom"):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        outer = tracer.export()[0]
        inner = outer["children"][0]
        assert inner["status"] == "error"
        assert inner["error"] == "ValueError: boom"
        assert outer["status"] == "error"  # unwinds through the parent too


class TestClocks:
    def test_manual_clock_gives_exact_durations(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer"):
            clock.advance(wall=1.0, cpu=0.25)
            with tracer.span("inner"):
                clock.advance(wall=2.0, cpu=0.5)
        outer = tracer.export()[0]
        inner = outer["children"][0]
        assert outer["wall_seconds"] == pytest.approx(3.0)
        assert outer["cpu_seconds"] == pytest.approx(0.75)
        assert inner["wall_seconds"] == pytest.approx(2.0)
        assert inner["cpu_seconds"] == pytest.approx(0.5)


class TestThreads:
    def test_each_thread_gets_its_own_stack(self):
        tracer = Tracer()
        seen = []

        def worker():
            with tracer.span("worker-root"):
                seen.append(tracer.current().name)

        with tracer.span("main-root"):
            thread = threading.Thread(target=worker, name="w-0")
            thread.start()
            thread.join()
        names = {span["name"]: span for span in tracer.export()}
        assert seen == ["worker-root"]
        # The worker's span is its own root, tagged with the thread name,
        # not a child of the span open on the main thread.
        assert set(names) == {"worker-root", "main-root"}
        assert names["worker-root"]["thread"] == "w-0"
        assert "children" not in names["main-root"]


class TestSerialization:
    @given(st.integers(min_value=0, max_value=4))
    def test_structure_is_timing_free(self, depth):
        """Two runs with different clocks have identical structures."""

        def run(clock):
            tracer = Tracer(clock=clock)
            span_stack = [tracer.span(f"level-{i}") for i in range(depth + 1)]
            for ctx in span_stack:
                ctx.__enter__()
                clock.advance(wall=1.0, cpu=1.0)
            for ctx in reversed(span_stack):
                ctx.__exit__(None, None, None)
            return tracer.export()

        fast, slow = ManualClock(), ManualClock()
        slow.advance(wall=100.0, cpu=100.0)
        assert structure(run(fast)) == structure(run(slow))
