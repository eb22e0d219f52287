"""Tests for the simulated platform, sessions, and cost accounting."""

import numpy as np
import pytest

from repro.crowd import PerfectCrowd, SimulatedCrowd, WorkerPool, ambiguity_difficulty
from repro.exceptions import ConfigurationError, CrowdError, DataError

TRUTH = {(0, 1): True, (0, 2): False, (1, 2): False, (3, 4): True}


class TestSimulatedCrowd:
    def test_answers_cached_across_sessions(self):
        crowd = SimulatedCrowd(TRUTH, WorkerPool(accuracy_range="70", seed=1))
        first = crowd.answer((0, 1))
        second = crowd.answer((0, 1))
        assert first is second

    def test_same_answer_for_both_orientations(self):
        crowd = SimulatedCrowd(TRUTH, WorkerPool(seed=1))
        assert crowd.answer((1, 0)) is crowd.answer((0, 1))

    def test_truth_keys_are_canonical(self):
        crowd = SimulatedCrowd({(2, 0): 1, (0, 1): 0})
        assert crowd.truth == {(0, 2): True, (0, 1): False}
        with pytest.raises(DataError):
            SimulatedCrowd({(3, 3): True})

    def test_unknown_pair_raises(self):
        crowd = SimulatedCrowd(TRUTH)
        with pytest.raises(CrowdError):
            crowd.answer((7, 8))

    def test_high_accuracy_pool_mostly_correct(self):
        crowd = SimulatedCrowd(TRUTH, WorkerPool(accuracy_range=(0.99, 1.0), seed=2))
        for pair, truth in TRUTH.items():
            assert crowd.answer(pair).answer == truth

    def test_votes_have_assignment_size(self):
        crowd = SimulatedCrowd(TRUTH, assignments=7)
        assert len(crowd.answer((0, 1)).votes) == 7

    def test_invalid_assignments(self):
        with pytest.raises(ConfigurationError):
            SimulatedCrowd(TRUTH, assignments=0)

    def test_invalid_aggregation(self):
        with pytest.raises(ConfigurationError):
            SimulatedCrowd(TRUTH, aggregation="mean")

    def test_difficulty_mapping_reduces_errors(self):
        truth = {(i, i + 1): True for i in range(0, 600, 2)}
        pool = WorkerPool(accuracy_range="70", seed=3)
        uniform = SimulatedCrowd(truth, pool)
        easy = SimulatedCrowd(
            truth, pool, difficulty={pair: 0.05 for pair in truth}
        )
        uniform_wrong = sum(uniform.answer(p).answer != truth[p] for p in truth)
        easy_wrong = sum(easy.answer(p).answer != truth[p] for p in truth)
        assert easy_wrong < uniform_wrong


class TestPerfectCrowd:
    def test_always_truth_with_full_confidence(self):
        crowd = PerfectCrowd(TRUTH)
        for pair, truth in TRUTH.items():
            outcome = crowd.answer(pair)
            assert outcome.answer == truth
            assert outcome.confidence == 1.0

    def test_unknown_pair_still_raises(self):
        with pytest.raises(CrowdError):
            PerfectCrowd(TRUTH).answer((9, 10))


class TestCrowdSession:
    def test_question_and_iteration_accounting(self):
        session = PerfectCrowd(TRUTH).session()
        session.ask_batch([(0, 1), (0, 2)])
        session.ask((1, 2))
        assert session.questions_asked == 3
        assert session.iterations == 2

    def test_reask_not_billed(self):
        session = PerfectCrowd(TRUTH).session()
        session.ask((0, 1))
        session.ask((0, 1))
        assert session.questions_asked == 1
        assert session.iterations == 2  # still two round trips

    def test_empty_batch_is_free(self):
        session = PerfectCrowd(TRUTH).session()
        assert session.ask_batch([]) == {}
        assert session.iterations == 0

    def test_cost_model(self):
        # 10 pairs per HIT, 10 cents per HIT, 5 assignments:
        # 3 questions -> 1 HIT x 5 workers -> 50 cents.
        session = PerfectCrowd(TRUTH).session(pairs_per_hit=10, cents_per_hit=10)
        session.ask_batch([(0, 1), (0, 2), (1, 2)])
        assert session.hits == 5
        assert session.cost_cents == 50

    def test_cost_rounds_up_per_hit(self):
        truth = {(i, i + 1): True for i in range(0, 30, 2)}
        session = PerfectCrowd(truth).session(pairs_per_hit=10, cents_per_hit=10)
        session.ask_batch(list(truth)[:11])
        assert session.hits == 2 * 5

    def test_zero_questions_zero_cost(self):
        session = PerfectCrowd(TRUTH).session()
        assert session.cost_cents == 0

    def test_invalid_pricing(self):
        crowd = PerfectCrowd(TRUTH)
        with pytest.raises(ConfigurationError):
            crowd.session(pairs_per_hit=0)
        with pytest.raises(ConfigurationError):
            crowd.session(cents_per_hit=-1)

    def test_sessions_share_platform_answers(self):
        crowd = SimulatedCrowd(TRUTH, WorkerPool(accuracy_range="70", seed=9))
        a = crowd.session().ask((0, 1))
        b = crowd.session().ask((0, 1))
        assert a == b


class TestCostAccountingSemantics:
    """Pin the billing contract documented on :class:`CrowdSession`.

    The engine's budget guardrails (:mod:`repro.engine.budget`) invert this
    formula, so these are regression tests: if billing semantics drift, the
    guardrails silently over- or under-spend.
    """

    def _truth(self, n):
        return {(i, i + 1): True for i in range(0, 2 * n, 2)}

    def test_many_thin_rounds_cost_same_as_one_fat_batch(self):
        """Billing is whole-run pooled: 25 one-question rounds == one
        25-question batch in money.  Only latency tells them apart."""
        truth = self._truth(25)
        crowd = PerfectCrowd(truth)
        thin = crowd.session(pairs_per_hit=10, cents_per_hit=10)
        for pair in truth:
            thin.ask(pair)
        fat = crowd.session(pairs_per_hit=10, cents_per_hit=10)
        fat.ask_batch(list(truth))
        assert thin.questions_asked == fat.questions_asked == 25
        assert thin.hits == fat.hits == 3 * 5  # ceil(25/10) HITs x z
        assert thin.cost_cents == fat.cost_cents == 150
        # Latency is what distinguishes the two shapes.
        assert thin.iterations == 25 and fat.iterations == 1
        assert thin.batch_sizes == [1] * 25 and fat.batch_sizes == [25]

    def test_partial_hit_billed_in_full_once(self):
        """Ceiling rounding happens once, at the end — not per batch."""
        truth = self._truth(12)
        pairs = list(truth)
        session = PerfectCrowd(truth).session(pairs_per_hit=10, cents_per_hit=10)
        session.ask_batch(pairs[:7])
        assert session.hits == 1 * 5  # partial HIT billed in full...
        session.ask_batch(pairs[7:11])
        assert session.hits == 2 * 5  # ...but not billed again per batch
        session.ask_batch(pairs[11:])
        assert session.hits == 2 * 5  # 12 questions still fit 2 HITs

    def test_reasking_never_adds_hits(self):
        truth = self._truth(11)
        pairs = list(truth)
        session = PerfectCrowd(truth).session(pairs_per_hit=10, cents_per_hit=10)
        session.ask_batch(pairs)
        before = session.cost_cents
        for _ in range(3):
            session.ask_batch(pairs)  # all cached on the platform
        assert session.questions_asked == 11
        assert session.cost_cents == before == 2 * 5 * 10

    def test_assignments_multiply_hits(self):
        truth = self._truth(10)
        crowd = PerfectCrowd(truth, assignments=3)
        session = crowd.session(pairs_per_hit=10, cents_per_hit=10)
        session.ask_batch(list(truth))
        assert session.hits == 1 * 3
        assert session.cost_cents == 30

    def test_budget_guard_inverts_billing_exactly(self):
        """BudgetGuard.affordable_questions must agree with what the
        session would actually bill."""
        from repro.engine import BudgetGuard

        truth = self._truth(40)
        pairs = list(truth)
        guard = BudgetGuard(max_cents=150)  # 3 HITs x 5 workers x 10c
        allowed = guard.affordable_questions(
            asked=0, requested=len(pairs), pairs_per_hit=10,
            cents_per_hit=10, assignments=5,
        )
        assert allowed == 30
        session = PerfectCrowd(truth).session(pairs_per_hit=10, cents_per_hit=10)
        session.ask_batch(pairs[:allowed])
        assert session.cost_cents == 150  # exactly the cap, never over
        # One more question would blow the budget.
        over = PerfectCrowd(truth).session(pairs_per_hit=10, cents_per_hit=10)
        over.ask_batch(pairs[: allowed + 1])
        assert over.cost_cents > 150


class TestAmbiguityDifficulty:
    def test_extremes_are_easy(self):
        vectors = np.array([[1.0, 1.0], [0.0, 0.0], [0.5, 0.5]])
        pairs = [(0, 1), (2, 3), (4, 5)]
        difficulty = ambiguity_difficulty(vectors, pairs, floor=0.1, peak=1.0)
        assert difficulty[(0, 1)] == pytest.approx(0.1)
        assert difficulty[(2, 3)] == pytest.approx(0.1)
        assert difficulty[(4, 5)] == pytest.approx(1.0)
