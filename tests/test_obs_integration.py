"""Integration tests: transparency, the telemetry migration, CLI flags.

Three contracts pinned here:

* **transparency** — a pipeline run with tracing+metrics active is
  byte-identical to the plain run (the tentpole guarantee, also enforced
  by the ``observability-transparent`` battery checks);
* **telemetry migration** — the registry-backed
  :class:`repro.obs.Telemetry` produces the exact bytes of the retired
  engine telemetry dataclass;
* **CLI plumbing** — ``--trace`` / ``--metrics-out`` write real artifacts,
  and ``repro simulate --trace`` splits every selection round into its
  cover, ask and propagate spans.

Time is read in one place: the tracer's clock, through
:func:`repro.obs.timed` regions, so a ``ManualClock`` drives the stage
histograms, the selection cover time and the spans alike.
"""

from __future__ import annotations

import json

import pytest

from repro.core import PowerConfig, PowerResolver
from repro.obs import (
    Observability,
    Telemetry,
    activated,
    current,
    structure,
)
from repro.verify import oracles
from repro.verify.battery import random_instance


class TestTransparency:
    def test_selection_is_identical_with_observability_active(self):
        pairs, vectors = random_instance(3, num_vertices=20)
        oracles.check_observability_transparent("power", pairs, vectors, seed=3)

    def test_full_resolution_is_identical(self, small_table):
        plain = PowerResolver(PowerConfig(seed=0)).resolve(
            small_table, worker_band="90"
        )
        with activated(Observability(tracing=True, metrics=True)) as obs:
            observed = PowerResolver(PowerConfig(seed=0)).resolve(
                small_table, worker_band="90"
            )
        assert observed.matches == plain.matches
        assert observed.clusters == plain.clusters
        assert observed.questions == plain.questions
        assert observed.cost_cents == plain.cost_cents
        # And the run actually was instrumented:
        names = [name for _, name in structure(obs.tracer.export())]
        assert "resolve" in names and "selection.run" in names
        assert obs.registry.family("repro_selection_rounds_total")

    @pytest.mark.parametrize("sharded", [False, True])
    def test_each_round_times_its_crowd_call(self, small_table, sharded):
        """A ``selection.ask`` span sits in every round, serial or sharded,
        counting the round's questions and the pairs it newly paid for."""
        from repro.obs import walk
        from repro.shard import ShardedResolver

        config = PowerConfig(seed=0)
        resolver = ShardedResolver(config, workers=0) if sharded else PowerResolver(config)
        with activated(Observability(tracing=True)) as obs:
            result = resolver.resolve(small_table, worker_band="90")
        rounds = [span for _, span in walk(obs.tracer.export()) if span["name"] == "selection.round"]
        asks = [
            child["attributes"]
            for span in rounds
            for child in span["children"]
            if child["name"] == "selection.ask"
        ]
        assert len(asks) == len(rounds) == result.iterations
        assert sum(ask["new"] for ask in asks) == result.questions
        assert all(0 <= ask["new"] <= ask["asked"] for ask in asks)

    def test_handle_is_restored_after_the_block(self):
        before = current()
        with activated(Observability()):
            assert current() is not before
        assert current() is before
        with pytest.raises(RuntimeError):
            with activated(Observability()):
                raise RuntimeError("crash inside the block")
        assert current() is before  # a crashed run cannot leak a tracer


class TestStageClock:
    """Each resolve stage is timed once, on the tracer's clock."""

    SECONDS = {
        "join": 1.0,
        "vectorize": 2.0,
        "construct": 4.0,
        "crowd": 8.0,
        "select": 16.0,
        "cluster": 32.0,
    }

    def slow_stages(self, monkeypatch, clock):
        """Make each stage take ``SECONDS[stage]`` on *clock*, and no other
        time pass."""
        from repro.core import resolver as core_resolver
        from repro.stream import StreamingResolver

        def advancing(function, stage):
            def wrapper(*args, **kwargs):
                result = function(*args, **kwargs)
                clock.advance(self.SECONDS[stage])
                return result

            return wrapper

        resolver_class = core_resolver.PowerResolver
        for method, stage in (
            ("candidate_pairs", "join"),
            ("similarity_vectors", "vectorize"),
            ("build_graph", "construct"),
            ("simulated_crowd", "crowd"),
        ):
            monkeypatch.setattr(
                resolver_class, method, advancing(getattr(resolver_class, method), stage)
            )
        make_selector = resolver_class.make_selector

        def slow_selector(resolver):
            selector = make_selector(resolver)
            selector.run = advancing(selector.run, "select")
            return selector

        monkeypatch.setattr(resolver_class, "make_selector", slow_selector)
        monkeypatch.setattr(
            core_resolver,
            "clusters_from_matches",
            advancing(core_resolver.clusters_from_matches, "cluster"),
        )
        monkeypatch.setattr(
            StreamingResolver, "clusters", advancing(StreamingResolver.clusters, "cluster")
        )

    @pytest.mark.parametrize("tracing", [True, False])
    def test_stage_histograms_equal_their_spans(self, small_table, monkeypatch, tracing):
        from repro.obs import ManualClock, walk

        clock = ManualClock()
        self.slow_stages(monkeypatch, clock)
        obs = Observability(tracing=tracing, metrics=True)
        obs.tracer.clock = clock
        with activated(obs):
            PowerResolver(PowerConfig(seed=0)).resolve(small_table, worker_band="90")
        spans = {
            span["name"]: span["wall_seconds"] for _, span in walk(obs.tracer.export())
        }
        histograms = {
            dict(metric.labels)["stage"]: metric
            for metric in obs.registry.family("repro_pipeline_stage_seconds")
        }
        assert sorted(histograms) == sorted(self.SECONDS)
        for stage, seconds in self.SECONDS.items():
            assert histograms[stage].count == 1
            assert histograms[stage].sum == seconds
            if tracing:
                assert spans[f"resolve.{stage}"] == seconds
        assert bool(spans) == tracing

    def test_stream_batch_records_its_join_seconds(self, small_table):
        from repro.stream import StreamingResolver

        records = list(small_table)[:30]
        with activated(Observability(tracing=False, metrics=True)) as obs:
            report = StreamingResolver(
                small_table.attributes, config=PowerConfig(seed=0), worker_band="90"
            ).add_batch(
                [record.values for record in records],
                entity_ids=[record.entity_id for record in records],
            )
        stages = {
            dict(metric.labels)["stage"]: metric
            for metric in obs.registry.family("repro_pipeline_stage_seconds")
        }
        assert sorted(stages) == sorted(self.SECONDS)
        assert all(dict(metric.labels) == {"stage": name} for name, metric in stages.items())
        assert stages["join"].count == 1
        assert stages["join"].sum == report["join_seconds"]
        assert "ingest_seconds" not in report

    def test_stream_batch_is_the_sum_of_its_stages(self, small_table, monkeypatch):
        """A streamed batch runs the one-shot resolve's six stage regions:
        its ``stream.batch`` span is their sum, each stage's histogram
        observation is its span, and the report's ``join_seconds`` is the
        ``resolve.join`` span."""
        from repro.obs import ManualClock, walk
        from repro.stream import StreamingResolver

        clock = ManualClock()
        self.slow_stages(monkeypatch, clock)
        obs = Observability(tracing=True, metrics=True)
        obs.tracer.clock = clock
        records = list(small_table)[:30]
        with activated(obs):
            report = StreamingResolver(
                small_table.attributes, config=PowerConfig(seed=0)
            ).add_batch(
                [record.values for record in records],
                entity_ids=[record.entity_id for record in records],
            )
        assert report["new_pairs"] > 0
        [batch] = [
            span for _, span in walk(obs.tracer.export()) if span["name"] == "stream.batch"
        ]
        children = {child["name"]: child["wall_seconds"] for child in batch["children"]}
        assert children == {f"resolve.{stage}": seconds for stage, seconds in self.SECONDS.items()}
        assert batch["wall_seconds"] == sum(children.values())
        for metric in obs.registry.family("repro_pipeline_stage_seconds"):
            stage = dict(metric.labels)["stage"]
            assert (metric.count, metric.sum) == (1, children[f"resolve.{stage}"])
        assert report["join_seconds"] == children["resolve.join"]


class TestSelectionClock:
    """Fig. 30's assignment time is the sum of the run's cover regions."""

    STEP = 0.25

    def run(self, obs, small_bundle):
        """Single-path selection whose ``select`` takes ``STEP`` seconds on
        the tracer's clock, and during which no other time passes."""
        from repro.crowd import PerfectCrowd
        from repro.graph import PairGraph
        from repro.obs import ManualClock
        from repro.selection import SELECTORS

        _, pairs, vectors, truth = small_bundle
        clock = ManualClock()
        obs.tracer.clock = clock
        selector = SELECTORS["single-path"](seed=0)
        select = selector.select

        def stepping(*args):
            clock.advance(self.STEP)
            return select(*args)

        selector.select = stepping
        with activated(obs):
            return selector.run(PairGraph(pairs, vectors), PerfectCrowd(truth).session())

    def test_unobserved_assignment_time_is_step_times_rounds(self, small_bundle):
        result = self.run(Observability(tracing=False, metrics=False), small_bundle)
        rounds = result.extras["selection"]["rounds"]
        assert rounds > 1
        assert result.assignment_time == self.STEP * rounds

    def test_cover_spans_and_histogram_sum_to_the_assignment_time(self, small_bundle):
        from repro.obs import walk

        obs = Observability(tracing=True, metrics=True)
        result = self.run(obs, small_bundle)
        rounds = result.extras["selection"]["rounds"]
        assert result.assignment_time == self.STEP * rounds
        covers = [
            span["wall_seconds"]
            for _, span in walk(obs.tracer.export())
            if span["name"] == "selection.cover"
        ]
        assert len(covers) == rounds
        assert sum(covers) == result.assignment_time
        [histogram] = obs.registry.family("repro_selection_cover_seconds")
        assert histogram.count == rounds
        assert histogram.sum == result.assignment_time
        [propagate] = obs.registry.family("repro_selection_propagate_seconds")
        assert (propagate.count, propagate.sum) == (rounds, 0.0)
        assert not obs.registry.family("repro_selection_cover_seconds_total")
        assert not obs.registry.family("repro_selection_propagate_seconds_total")


class TestTelemetryMigration:
    def expected_bytes(self):
        """The pre-migration dataclass's exact ``as_dict`` output."""
        return {
            "counters": {
                "posted": 7, "assigned": 6, "answered_units": 5,
                "answered_pairs": 4, "expired": 1, "abandoned": 1,
                "re_posts": 2, "failed_units": 0, "machine_answers": 1,
                "spam_hijacked": 0, "rounds": 3,
            },
            "wall_clock_seconds": 12.346,
            "billed_cents": 50,
            "repost_cents": 6.5,
            "total_spent_cents": 56.5,
            "recent_events": [
                {"type": "posted", "clock": 1.0, "unit": "u-1"},
            ],
        }

    def populated(self, **kwargs):
        telemetry = Telemetry(**kwargs)
        telemetry.posted = 7
        telemetry.assigned = 6
        telemetry.answered_units = 5
        telemetry.answered_pairs = 4
        telemetry.expired = 1
        telemetry.abandoned = 1
        telemetry.re_posts = 2
        telemetry.machine_answers = 1
        telemetry.rounds = 3
        telemetry.wall_clock_seconds = 12.3456
        telemetry.billed_cents = 50
        telemetry.repost_cents = 6.5
        telemetry.record_event("posted", 1.0, unit="u-1")
        return telemetry

    def test_as_dict_bytes_match_the_retired_dataclass(self):
        assert self.populated().as_dict() == self.expected_bytes()

    def test_write_bytes_match(self, tmp_path):
        path = self.populated().write(tmp_path / "t.json")
        expected = json.dumps(self.expected_bytes(), indent=2) + "\n"
        assert path.read_text(encoding="utf-8") == expected

    def test_attribute_semantics_survive(self):
        telemetry = Telemetry()
        telemetry.posted += 1
        telemetry.posted += 1
        assert telemetry.posted == 2
        assert isinstance(telemetry.posted, int)
        assert isinstance(telemetry.billed_cents, int)
        assert isinstance(telemetry.wall_clock_seconds, float)
        assert telemetry.total_spent_cents == 0
        with pytest.raises(AttributeError):
            telemetry.no_such_field  # noqa: B018 - the raise is the test

    def test_summary_format_unchanged(self):
        summary = self.populated().summary()
        assert summary == (
            "rounds=3 answered=4 re-posts=2 expired=1 abandoned=1 "
            "machine=1 spam=0 spent=0.56USD wall-clock=0.2min"
        )

    def test_counters_land_in_a_shared_registry(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        telemetry = Telemetry(registry=registry)
        telemetry.posted += 3
        assert registry.counter("repro_engine_posted_total").value == 3

    def test_event_log_stays_bounded(self):
        telemetry = Telemetry(event_log_limit=3)
        for index in range(10):
            telemetry.record_event("posted", float(index))
        assert len(telemetry.events) == 3
        assert telemetry.events[0]["clock"] == 7.0

    def test_engine_joins_the_active_registry(self):
        from repro.crowd.platform import PerfectCrowd
        from repro.engine import CrowdEngine, EngineConfig

        pairs = [(0, 1), (2, 3)]
        with activated(Observability(tracing=False, metrics=True)) as obs:
            engine = CrowdEngine(EngineConfig(seed=0))
            session = engine.session(PerfectCrowd({p: True for p in pairs}))
            session.ask_batch(pairs)
        assert obs.registry.counter("repro_engine_posted_total").value > 0


class TestCliFlags:
    @pytest.fixture()
    def small_csv(self, tmp_path, small_table):
        from repro.data import save_csv

        path = tmp_path / "small.csv"
        save_csv(small_table, path)
        return path

    def test_resolve_writes_trace_and_metrics(self, small_csv, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "run.trace.jsonl"
        metrics_path = tmp_path / "run.prom"
        code = main([
            "resolve", str(small_csv), "--seed", "1",
            "--trace", str(trace_path), "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert str(trace_path) in out and str(metrics_path) in out

        from repro.obs import read_trace

        names = [name for _, name in structure(read_trace(trace_path))]
        assert names[0] == "resolve" and "selection.run" in names
        assert "repro_selection_questions_total" in metrics_path.read_text()

    def test_flags_leave_results_unchanged(self, small_csv, tmp_path, capsys):
        from repro.cli import main

        assert main(["resolve", str(small_csv), "--seed", "1"]) == 0
        plain = capsys.readouterr().out
        assert main([
            "resolve", str(small_csv), "--seed", "1",
            "--trace", str(tmp_path / "t.jsonl"),
        ]) == 0
        observed = capsys.readouterr().out
        strip = ("trace      :",)
        observed_lines = [
            line for line in observed.splitlines()
            if not line.startswith(strip)
        ]
        assert observed_lines == plain.splitlines()

    def test_simulate_trace_splits_every_round(self, tmp_path, capsys):
        """Per-round detail lives in the trace: every ``selection.round``
        holds exactly its cover, crowd and propagate spans."""
        from repro.cli import main
        from repro.obs import read_trace, walk

        trace_path = tmp_path / "sim.trace.jsonl"
        code = main([
            "simulate", "--dataset", "restaurant", "--fault-profile", "none",
            "--seed", "0", "--out-dir", str(tmp_path), "--trace", str(trace_path),
        ])
        assert code == 0
        assert "selection      : rounds" in capsys.readouterr().out
        rounds = [
            span for _, span in walk(read_trace(trace_path))
            if span["name"] == "selection.round"
        ]
        assert rounds
        for span in rounds:
            assert [child["name"] for child in span["children"]] == [
                "selection.cover", "selection.ask", "selection.propagate"
            ]
            assert {"asked", "colored"} <= set(span["attributes"])

    def test_simulate_has_no_round_table_flag(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "--help"])
        assert exit_info.value.code == 0
        assert "--no-rounds-table" not in capsys.readouterr().out
