"""Tests for the crowd latency model."""

import pytest

from repro.crowd import PerfectCrowd
from repro.crowd.latency import LatencyModel
from repro.exceptions import ConfigurationError


class TestBatchSeconds:
    def test_empty_batch_free(self):
        assert LatencyModel().batch_seconds(0) == 0.0

    def test_single_wave(self):
        # 5 questions x 5 assignments = 25 = exactly the worker pool.
        model = LatencyModel(concurrent_workers=25, seconds_per_answer=30,
                             round_overhead_seconds=120, assignments=5)
        assert model.batch_seconds(5) == 120 + 30

    def test_multiple_waves(self):
        model = LatencyModel(concurrent_workers=25, seconds_per_answer=30,
                             round_overhead_seconds=120, assignments=5)
        assert model.batch_seconds(6) == 120 + 2 * 30  # 30 assignments -> 2 waves

    def test_negative_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencyModel().batch_seconds(-1)


class TestEstimates:
    def test_serial_dominated_by_overhead(self):
        """100 one-question rounds cost ~100 overheads; one 100-question
        round costs one overhead plus throughput — far less."""
        model = LatencyModel()
        serial = model.estimate_seconds([1] * 100)
        parallel = model.estimate_seconds([100])
        assert serial > 5 * parallel

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            LatencyModel(concurrent_workers=0)
        with pytest.raises(ConfigurationError):
            LatencyModel(seconds_per_answer=0)
        with pytest.raises(ConfigurationError):
            LatencyModel(round_overhead_seconds=-1)
        with pytest.raises(ConfigurationError):
            LatencyModel(assignments=0)


class TestEdgeCases:
    def test_zero_question_batches_inside_sequence_are_free(self):
        model = LatencyModel()
        assert model.estimate_seconds([0, 0, 0]) == 0.0
        assert model.estimate_seconds([5, 0, 5]) == model.estimate_seconds([5, 5])

    def test_empty_sequence(self):
        assert LatencyModel().estimate_seconds([]) == 0.0

    def test_single_worker_serialises_every_assignment(self):
        model = LatencyModel(concurrent_workers=1, seconds_per_answer=10,
                             round_overhead_seconds=0, assignments=3)
        # 4 questions x 3 assignments, one at a time.
        assert model.batch_seconds(4) == 12 * 10


class TestEngineClockConvergence:
    def test_engine_clock_equals_closed_form_without_faults(self):
        """Under a zero-fault profile the event-driven clock must land
        exactly on LatencyModel.estimate_seconds for the same batch shape."""
        from repro.engine import CrowdEngine, EngineConfig

        truth = {(i, i + 1): True for i in range(0, 40, 2)}
        pairs = list(truth)
        model = LatencyModel(concurrent_workers=7, seconds_per_answer=11.0,
                             round_overhead_seconds=53.0, assignments=5)
        engine = CrowdEngine(EngineConfig(latency=model, faults="none", seed=3))
        crowd = PerfectCrowd(truth)
        session = engine.session(crowd)
        session.ask_batch(pairs[:3])
        session.ask_batch(pairs[3:15])
        session.ask_batch(pairs[15:16])
        engine.finalize(session)
        assert session.batch_sizes == [3, 12, 1]
        assert engine.wall_clock_seconds == pytest.approx(
            model.estimate_seconds(session.batch_sizes)
        )

    def test_engine_clock_with_reasks_still_matches(self):
        """Re-asked pairs are free in money but still occupy workers, and
        the closed form counts batch entries the same way."""
        from repro.engine import CrowdEngine, EngineConfig

        truth = {(0, 1): True, (2, 3): False}
        model = LatencyModel(concurrent_workers=3, seconds_per_answer=5.0,
                             round_overhead_seconds=17.0, assignments=3)
        engine = CrowdEngine(EngineConfig(latency=model, faults="none"))
        session = engine.session(PerfectCrowd(truth, assignments=3))
        session.ask_batch([(0, 1), (2, 3)])
        session.ask_batch([(0, 1)])  # re-ask: cached answer, real latency
        engine.finalize(session)
        assert session.questions_asked == 2
        assert engine.wall_clock_seconds == pytest.approx(
            model.estimate_seconds([2, 1])
        )


class TestSessionIntegration:
    def test_sessions_record_batch_sizes(self):
        truth = {(0, 1): True, (2, 3): False, (4, 5): True}
        session = PerfectCrowd(truth).session()
        session.ask_batch([(0, 1), (2, 3)])
        session.ask((4, 5))
        assert session.batch_sizes == [2, 1]

    def test_selector_latency_ranking(self, small_bundle):
        """Power's few fat rounds beat SinglePath's many thin ones on the
        modeled wall clock, mirroring the paper's iteration argument."""
        from repro.graph import PairGraph
        from repro.selection import SinglePathSelector, TopoSortSelector

        _, pairs, vectors, truth = small_bundle
        graph = PairGraph(pairs, vectors)
        model = LatencyModel()
        crowd = PerfectCrowd(truth)
        serial_session = crowd.session()
        SinglePathSelector().run(graph, serial_session)
        parallel_session = crowd.session()
        TopoSortSelector().run(graph, parallel_session)
        assert model.estimate_seconds(parallel_session.batch_sizes) < (
            model.estimate_seconds(serial_session.batch_sizes)
        )
