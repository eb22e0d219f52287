"""The engine's two headline guarantees, end to end.

* **Fault-free equivalence** — with zero fault rates and no budget caps,
  an engine-driven run is byte-identical to the synchronous path (same
  matches, clusters, question counts, cents), and its simulated wall clock
  matches :meth:`LatencyModel.estimate_seconds` within 1 % (in fact
  exactly, by the closed-form argument in ``repro/engine/runtime.py``).
* **Crash resume** — a run killed mid-flight (``crash_after``) and resumed
  from its journal converges to the same final state as a run that never
  crashed, even under fault injection and even when the crash tore the
  journal's last line.
"""

import pytest

from repro.core import PowerConfig, PowerResolver
from repro.crowd import SimulatedCrowd, WorkerPool
from repro.crowd.latency import LatencyModel
from repro.data import restaurant
from repro.engine import CrowdEngine, EngineConfig, FaultProfile
from repro.exceptions import ConfigurationError, SimulatedCrash
from repro.graph import PairGraph
from repro.selection import TopoSortSelector


# ---------------------------------------------------------------------- #
# Fault-free equivalence (the acceptance bar)
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def restaurant_runs():
    """One synchronous and one engine-driven resolve of the same dataset."""
    table = restaurant()
    sync = PowerResolver(PowerConfig(seed=1)).resolve(table)
    engine = CrowdEngine(EngineConfig(faults="none", seed=1))
    driven = PowerResolver(PowerConfig(seed=1)).resolve(table, engine=engine)
    return sync, driven, engine


class TestFaultFreeEquivalence:
    def test_byte_identical_outcome(self, restaurant_runs):
        sync, driven, _ = restaurant_runs
        assert driven.matches == sync.matches
        assert driven.clusters == sync.clusters
        assert driven.questions == sync.questions
        assert driven.iterations == sync.iterations
        assert driven.cost_cents == sync.cost_cents
        assert driven.quality.f_measure == sync.quality.f_measure

    def test_wall_clock_matches_closed_form_within_one_percent(self, restaurant_runs):
        _, driven, engine = restaurant_runs
        batch_sizes = driven.selection.extras["batch_sizes"]
        estimate = LatencyModel().estimate_seconds(batch_sizes)
        clock = driven.selection.extras["wall_clock_seconds"]
        assert clock == engine.wall_clock_seconds
        assert estimate > 0
        assert abs(clock - estimate) / estimate < 0.01
        # The closed form is not just near — it is exact by construction.
        assert clock == pytest.approx(estimate)

    def test_engine_telemetry_attached(self, restaurant_runs):
        sync, driven, _ = restaurant_runs
        telemetry = driven.selection.extras["telemetry"]
        counters = telemetry["counters"]
        assert counters["re_posts"] == 0
        assert counters["expired"] == 0
        assert counters["abandoned"] == 0
        assert counters["machine_answers"] == 0
        assert counters["answered_pairs"] == sync.questions
        # Every posted unit was answered: z per question, no retries.
        assert counters["posted"] == counters["answered_units"]

    def test_session_and_engine_together_rejected(self):
        table = restaurant()
        engine = CrowdEngine(EngineConfig())
        resolver = PowerResolver(PowerConfig(seed=1))
        crowd = resolver.simulated_crowd(table, resolver.candidate_pairs(table))
        with pytest.raises(ConfigurationError):
            resolver.resolve(table, session=crowd.session(), engine=engine)

    def test_mismatched_assignments_rejected(self, small_bundle):
        _, _, _, truth = small_bundle
        crowd = SimulatedCrowd(truth, assignments=3)  # latency default z=5
        engine = CrowdEngine(EngineConfig())
        with pytest.raises(ConfigurationError):
            engine.session(crowd)


# ---------------------------------------------------------------------- #
# Crash resume
# ---------------------------------------------------------------------- #

FLAKY = FaultProfile(
    name="test-flaky",
    no_show_rate=0.2,
    abandon_rate=0.1,
    straggler_rate=0.2,
    spammer_burst_rate=0.05,
)


def _run_selection(small_bundle, engine):
    """One TopoSort selection of the small synthetic bundle via *engine*."""
    _, pairs, vectors, truth = small_bundle
    crowd = SimulatedCrowd(truth, WorkerPool(accuracy_range="80", seed=5))
    session = engine.session(crowd)
    result = TopoSortSelector(seed=0).run(PairGraph(pairs, vectors), session)
    engine.finalize(session)
    return result, session


class TestCrashResume:
    def _config(self, path, **overrides):
        values = dict(faults=FLAKY, seed=11, journal_path=path)
        values.update(overrides)
        return EngineConfig(**values)

    def test_resume_converges_to_straight_through(self, small_bundle, tmp_path):
        straight_journal = tmp_path / "straight.jsonl"
        crashed_journal = tmp_path / "crashed.jsonl"

        # Straight-through reference run (faults on).
        straight_engine = CrowdEngine(self._config(straight_journal))
        straight, straight_session = _run_selection(small_bundle, straight_engine)

        # Crash partway: SimulatedCrash leaves a partial journal behind.
        crash_engine = CrowdEngine(self._config(crashed_journal, crash_after=8))
        with pytest.raises(SimulatedCrash):
            _run_selection(small_bundle, crash_engine)
        crash_engine.journal.close()
        assert crashed_journal.exists()
        partial = crashed_journal.read_text().count("\n")
        assert 0 < partial < straight_journal.read_text().count("\n")

        # Resume from the journal and run to completion.
        resume_engine = CrowdEngine(self._config(crashed_journal, resume=True))
        resumed, resumed_session = _run_selection(small_bundle, resume_engine)

        assert resumed.matches == straight.matches
        assert resumed.questions == straight.questions
        assert resumed.cost_cents == straight.cost_cents
        assert resumed.iterations == straight.iterations
        assert resume_engine.wall_clock_seconds == pytest.approx(
            straight_engine.wall_clock_seconds
        )
        # The journaled answers were reused, not re-drawn: the platform
        # cache was pre-seeded before the first ask.
        assert resumed_session.questions_asked == straight_session.questions_asked

    def test_resume_survives_torn_tail(self, small_bundle, tmp_path):
        straight_journal = tmp_path / "straight.jsonl"
        crashed_journal = tmp_path / "crashed.jsonl"
        straight_engine = CrowdEngine(self._config(straight_journal))
        straight, _ = _run_selection(small_bundle, straight_engine)

        crash_engine = CrowdEngine(self._config(crashed_journal, crash_after=8))
        with pytest.raises(SimulatedCrash):
            _run_selection(small_bundle, crash_engine)
        crash_engine.journal.close()
        # Tear the last journal line, as a mid-write crash would.
        raw = crashed_journal.read_bytes()
        crashed_journal.write_bytes(raw[:-7])

        resume_engine = CrowdEngine(self._config(crashed_journal, resume=True))
        resumed, _ = _run_selection(small_bundle, resume_engine)
        assert resumed.matches == straight.matches
        assert resumed.cost_cents == straight.cost_cents

    def test_journal_records_final_summary(self, small_bundle, tmp_path):
        from repro.engine import load_journal

        journal = tmp_path / "run.jsonl"
        engine = CrowdEngine(self._config(journal))
        result, session = _run_selection(small_bundle, engine)
        state = load_journal(journal)
        assert state.complete
        assert state.final["questions"] == session.questions_asked
        assert state.final["cost_cents"] == session.cost_cents
        assert state.rounds == session.iterations
        assert len(state.answers) == session.questions_asked
        # Telemetry JSON lands next to the journal by default.
        assert journal.with_suffix(".telemetry.json").exists()


# ---------------------------------------------------------------------- #
# Budget degradation
# ---------------------------------------------------------------------- #


class TestBudgetDegradation:
    def test_money_cap_degrades_to_machine_not_crash(self, small_bundle):
        table, pairs, vectors, truth = small_bundle
        scores = vectors.mean(axis=1)
        engine = CrowdEngine(EngineConfig(faults="none", max_cents=100))
        crowd = SimulatedCrowd(truth, WorkerPool(accuracy_range="80", seed=5))
        session = engine.session(
            crowd,
            machine_scores={p: float(s) for p, s in zip(pairs, scores)},
        )
        result = TopoSortSelector(seed=0).run(PairGraph(pairs, vectors), session)
        engine.finalize(session)
        assert session.cost_cents <= 100
        assert session.machine_answered > 0
        assert engine.telemetry.machine_answers == session.machine_answered
        # The run still produces a full resolution.
        assert result.matches is not None

    def test_question_cap_respected(self, small_bundle):
        _, pairs, vectors, truth = small_bundle
        engine = CrowdEngine(EngineConfig(faults="none", max_questions=10))
        crowd = SimulatedCrowd(truth, WorkerPool(accuracy_range="80", seed=5))
        session = engine.session(crowd)
        TopoSortSelector(seed=0).run(PairGraph(pairs, vectors), session)
        assert session.questions_asked <= 10

    def test_degraded_pairs_get_stable_machine_answers(self, small_bundle):
        _, pairs, vectors, truth = small_bundle
        engine = CrowdEngine(EngineConfig(faults="none", max_questions=0))
        crowd = SimulatedCrowd(truth, WorkerPool(accuracy_range="80", seed=5))
        scores = vectors.mean(axis=1)
        session = engine.session(
            crowd, machine_scores={p: float(s) for p, s in zip(pairs, scores)}
        )
        first = session.ask_batch(pairs[:5])
        second = session.ask_batch(pairs[:5])
        assert first == second  # machine answers are cached, not re-derived
        assert session.questions_asked == 0
        assert session.cost_cents == 0
        for pair, outcome in first.items():
            assert outcome.confidence == 0.5  # routed to the §6 histogram path
