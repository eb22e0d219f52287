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


class TestCrowdRounds:
    """One crowd round in one pass, with the per-pair answers unchanged."""

    PAIRS = [(k, k + 1 + k % 7) for k in range(0, 90, 3)]
    TRUTH = {pair: k % 3 == 0 for k, pair in enumerate(PAIRS)}
    # First half, second half, then four re-asks: 34 questions, 30 new.
    ORDER = PAIRS[::2] + PAIRS[1::2] + PAIRS[:4]

    @staticmethod
    def _digest(outcomes):
        import hashlib

        text = repr([(o.answer, o.confidence.hex(), o.votes) for o in outcomes])
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def _crowds(self):
        from repro.crowd import (
            AssigningCrowd,
            BestWorkerAssignment,
            QualityAwareCrowd,
            RandomAssignment,
            RoundRobinAssignment,
        )

        pool = WorkerPool(20, "80", seed=4, spammer_fraction=0.2)
        accuracies = {worker.worker_id: worker.accuracy for worker in pool.workers}
        gold = {(1000 + k, 2000 + k): bool(k % 2) for k in range(12)}
        truth = self.TRUTH
        return {
            "random-policy": lambda: AssigningCrowd(truth, pool, RandomAssignment()),
            "round-robin": lambda: AssigningCrowd(truth, pool, RoundRobinAssignment()),
            "best-worker": lambda: AssigningCrowd(
                truth, pool, BestWorkerAssignment(accuracies, 0.2)
            ),
            "quality-aware": lambda: QualityAwareCrowd(truth, pool, gold, temperature=0.5),
            "perfect": lambda: PerfectCrowd(truth),
        }

    # Digests of the outcomes the one-pair-at-a-time platform returned for
    # ORDER (every policy's order-dependent state included).
    PINNED = {
        "random-policy": "31e502d95c56385f",
        "round-robin": "39e1b3595c052d05",
        "best-worker": "ec8382457925a961",
        "quality-aware": "07056a57d36a2d8c",
        "perfect": "9ceeb6ed885ab6ad",
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_subclasses_keep_their_outcomes_through_answer_and_ask_batch(self, name):
        make = self._crowds()[name]
        one = make()
        assert self._digest([one.answer(pair) for pair in self.ORDER]) == self.PINNED[name]
        answers = make().session().ask_batch(self.ORDER)
        assert self._digest([answers[pair] for pair in self.ORDER]) == self.PINNED[name]

    @pytest.mark.parametrize("aggregation", ["weighted", "majority"])
    def test_answer_batch_equals_answering_pair_by_pair(self, aggregation):
        pool = WorkerPool(30, "70", seed=2**32 + 5, spammer_fraction=0.3)
        difficulty = {self.PAIRS[0]: 0.0, self.PAIRS[1]: 2.5, self.PAIRS[2]: float("nan")}

        def crowd():
            return SimulatedCrowd(
                self.TRUTH, pool=pool, aggregation=aggregation, difficulty=difficulty
            )

        single = crowd()
        expected = {pair: single.answer(pair) for pair in self.ORDER}
        for cut in (3, len(self.ORDER)):  # both sides of the kernel crossover
            batched = crowd().answer_batch(self.ORDER[:cut])
            assert list(batched) == list(dict.fromkeys(self.ORDER[:cut]))
            assert all(batched[pair] == expected[pair] for pair in batched)

    def test_failed_batch_bills_nothing(self):
        crowd = SimulatedCrowd(TRUTH, WorkerPool(seed=1))
        session = crowd.session()
        session.ask_batch([(3, 4)])
        ledger = (session.iterations, list(session.batch_sizes), session.asked_pairs)
        cost, cache = session.cost_cents, dict(crowd._cache)
        with pytest.raises(CrowdError):
            session.ask_batch([(0, 1), (5, 6), (2, 3)])
        assert (session.iterations, session.batch_sizes, session.asked_pairs) == ledger
        assert session.cost_cents == cost
        assert crowd._cache == cache

    def test_failed_round_leaves_a_policy_untouched(self):
        from repro.crowd import AssigningCrowd, RoundRobinAssignment

        policy = RoundRobinAssignment()
        crowd = AssigningCrowd(TRUTH, WorkerPool(seed=1), policy)
        with pytest.raises(CrowdError):
            crowd.answer_batch([(0, 1), (5, 6)])
        assert policy._cursor == 0 and not crowd._cache
