"""Tests for the exporters: JSONL traces, Prometheus text, console views."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.exceptions import ObservabilityError
from repro.obs import (
    ManualClock,
    MetricsRegistry,
    Tracer,
    read_trace,
    render_metrics,
    render_trace,
    structure,
    to_prometheus,
    trace_records,
    write_metrics,
    write_trace,
)


def sample_trace():
    clock = ManualClock()
    tracer = Tracer(clock=clock)
    with tracer.span("resolve", dataset="rest"):
        with tracer.span("resolve.join"):
            clock.advance(wall=0.5, cpu=0.4)
        with tracer.span("resolve.select") as span:
            span.set_attribute("questions", 96)
            clock.advance(wall=1.0, cpu=0.9)
    return tracer.export()


class TestTraceFiles:
    def test_records_are_preorder_with_parent_pointers(self):
        records = trace_records(sample_trace())
        assert [(r["id"], r["parent"], r["name"]) for r in records] == [
            (0, None, "resolve"),
            (1, 0, "resolve.join"),
            (2, 0, "resolve.select"),
        ]
        assert all("children" not in record for record in records)

    def test_write_read_roundtrip(self, tmp_path):
        spans = sample_trace()
        path = write_trace(spans, tmp_path / "run.trace.jsonl")
        assert read_trace(path) == spans

    def test_file_is_jsonl_with_a_header(self, tmp_path):
        path = write_trace(sample_trace(), tmp_path / "t.jsonl")
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0] == {"type": "header", "version": 1}
        assert all(line["type"] == "span" for line in lines[1:])

    def test_reader_rejects_garbage(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ObservabilityError, match="empty"):
            read_trace(empty)
        noise = tmp_path / "noise.jsonl"
        noise.write_text('{"type": "span", "id": 0}\n')
        with pytest.raises(ObservabilityError, match="header"):
            read_trace(noise)

    def test_render_trace_shows_tree_timings_and_attributes(self):
        rendered = render_trace(sample_trace())
        lines = rendered.splitlines()
        assert lines[0].startswith("resolve")
        assert "  resolve.join" in rendered
        assert "1500.00 ms" in lines[0]  # root wall = 0.5 + 1.0 s
        assert "[questions=96]" in rendered

    def test_render_trace_marks_errors(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("failing"):
                raise RuntimeError("disk on fire")
        rendered = render_trace(tracer.export())
        assert "!! RuntimeError: disk on fire" in rendered

    def test_render_trace_depth_and_duration_filters(self):
        spans = sample_trace()
        assert "resolve.join" not in render_trace(spans, max_depth=0)
        only_slow = render_trace(spans, min_seconds=0.75)
        assert "resolve.select" in only_slow
        assert "resolve.join" not in only_slow


class TestPrometheus:
    def test_counter_and_gauge_exposition(self):
        registry = MetricsRegistry()
        registry.counter("repro_questions_total", "questions asked",
                         selector="power").inc(96)
        registry.gauge("repro_rounds", "rounds in the last run").set(5)
        text = to_prometheus(registry)
        assert "# HELP repro_questions_total questions asked" in text
        assert "# TYPE repro_questions_total counter" in text
        assert 'repro_questions_total{selector="power"} 96' in text
        assert "repro_rounds 5" in text

    def test_histogram_exposition_is_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("repro_batch", "sizes",
                                       boundaries=(1.0, 5.0))
        for value in (1, 2, 7):
            histogram.observe(value)
        text = to_prometheus(registry)
        assert 'repro_batch_bucket{le="1"} 1' in text
        assert 'repro_batch_bucket{le="5"} 2' in text
        assert 'repro_batch_bucket{le="+Inf"} 3' in text
        assert "repro_batch_sum 10" in text
        assert "repro_batch_count 3" in text

    def test_family_members_share_one_header(self):
        registry = MetricsRegistry()
        registry.counter("c", "help", selector="a").inc()
        registry.counter("c", "help", selector="b").inc()
        text = to_prometheus(registry)
        assert text.count("# TYPE c counter") == 1
        assert 'c{selector="a"} 1' in text and 'c{selector="b"} 1' in text


class TestWriteMetrics:
    def test_suffix_picks_the_format(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        prom = write_metrics(registry, tmp_path / "m.prom")
        assert "# TYPE c counter" in prom.read_text()
        as_json = write_metrics(registry, tmp_path / "m.json")
        assert json.loads(as_json.read_text()) == {
            "c": [{"kind": "counter", "value": 3}]
        }

    def test_render_metrics_console_table(self):
        registry = MetricsRegistry()
        registry.counter("questions", selector="power").inc(96)
        registry.histogram("batch", boundaries=(1.0, 5.0)).observe(3)
        rendered = render_metrics(registry)
        assert "questions{selector=power}" in rendered
        assert "count=1 mean=3" in rendered


class TestTraceCli:
    def test_trace_command_renders_a_recorded_file(self, tmp_path, capsys):
        from repro.cli import main

        path = write_trace(sample_trace(), tmp_path / "run.trace.jsonl")
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "resolve" in out and "resolve.select" in out

    def test_trace_command_json_dump(self, tmp_path, capsys):
        from repro.cli import main

        path = write_trace(sample_trace(), tmp_path / "run.trace.jsonl")
        assert main(["trace", str(path), "--json"]) == 0
        records = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        assert [r["name"] for r in records] == [
            "resolve", "resolve.join", "resolve.select",
        ]

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_trace_command_exits_quietly_when_the_reader_leaves(self, tmp_path, flags):
        """``repro trace t.jsonl | head -1`` ends without a traceback.

        The rendered trace is far larger than a pipe buffer, so the
        command is still writing when its reader closes after one line.
        """
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        with tracer.span("resolve"):
            for index in range(20_000):
                with tracer.span("selection.round", index=index):
                    clock.advance(wall=0.001, cpu=0.001)
        path = write_trace(tracer.export(), tmp_path / "big.trace.jsonl")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "trace", str(path), *flags],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            assert proc.stdout.readline()
            proc.stdout.close()
            stderr = proc.stderr.read().decode()
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stderr.close()
        assert "Traceback" not in stderr and "BrokenPipeError" not in stderr, stderr
        assert proc.returncode == 1

    def test_trace_command_rejects_a_non_trace_file(self, tmp_path, capsys):
        from repro.cli import main

        bogus = tmp_path / "bogus.jsonl"
        bogus.write_text('{"type": "journal"}\n')
        assert main(["trace", str(bogus)]) == 1
        assert "error" in capsys.readouterr().err

    def test_roundtrip_preserves_structure(self, tmp_path):
        spans = sample_trace()
        path = write_trace(spans, tmp_path / "t.jsonl")
        assert structure(read_trace(path)) == structure(spans)
