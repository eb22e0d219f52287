"""Tests for the worker model and pools."""

import numpy as np
import pytest

from repro.crowd import ACCURACY_BANDS, Worker, WorkerPool
from repro.exceptions import ConfigurationError


class TestWorker:
    def test_perfect_worker_always_correct(self):
        worker = Worker(worker_id=0, accuracy=1.0, seed=0)
        for pair in [(0, 1), (2, 9), (5, 7)]:
            assert worker.answer(pair, True) is True
            assert worker.answer(pair, False) is False

    def test_zero_accuracy_always_wrong(self):
        worker = Worker(worker_id=0, accuracy=0.0, seed=0)
        # difficulty=1 -> error = min(0.5, 1.0) = 0.5, so use difficulty 2
        # is capped too; check the statistical property instead.
        wrong = sum(
            worker.answer((i, i + 1), True) != True for i in range(0, 400, 2)
        )
        assert wrong > 50  # errs about half the time at the 0.5 cap

    def test_answers_deterministic_per_pair(self):
        worker = Worker(worker_id=3, accuracy=0.7, seed=42)
        assert worker.answer((1, 2), True) == worker.answer((1, 2), True)

    def test_answers_order_independent(self):
        a = Worker(worker_id=3, accuracy=0.7, seed=42)
        b = Worker(worker_id=3, accuracy=0.7, seed=42)
        first = [a.answer((1, 2), True), a.answer((3, 4), False)]
        second = [b.answer((3, 4), False), b.answer((1, 2), True)]
        assert first == [second[1], second[0]]

    def test_accuracy_statistics(self):
        worker = Worker(worker_id=0, accuracy=0.8, seed=7)
        correct = sum(
            worker.answer((i, i + 1), True) for i in range(0, 4000, 2)
        )
        assert 0.75 <= correct / 2000 <= 0.85

    def test_difficulty_scales_error(self):
        worker = Worker(worker_id=0, accuracy=0.7, seed=7)
        easy_wrong = sum(
            not worker.answer((i, i + 1), True, difficulty=0.1)
            for i in range(0, 4000, 2)
        )
        hard_wrong = sum(
            not worker.answer((i, i + 1), True, difficulty=1.0)
            for i in range(0, 4000, 2)
        )
        assert easy_wrong < hard_wrong / 3

    def test_negative_difficulty_rejected(self):
        worker = Worker(worker_id=0, accuracy=0.7, seed=7)
        with pytest.raises(ConfigurationError):
            worker.answer((0, 1), True, difficulty=-1.0)

    def test_invalid_accuracy(self):
        with pytest.raises(ConfigurationError):
            Worker(worker_id=0, accuracy=1.2, seed=0)


class TestWorkerPool:
    def test_band_by_label(self):
        pool = WorkerPool(size=100, accuracy_range="80", seed=0)
        accuracies = [worker.accuracy for worker in pool.workers]
        low, high = ACCURACY_BANDS["80"]
        assert all(low <= a <= high for a in accuracies)

    def test_band_by_tuple(self):
        pool = WorkerPool(size=10, accuracy_range=(0.5, 0.6), seed=0)
        assert all(0.5 <= w.accuracy <= 0.6 for w in pool.workers)

    def test_unknown_band_label(self):
        with pytest.raises(ConfigurationError):
            WorkerPool(accuracy_range="95")

    def test_invalid_band_tuple(self):
        with pytest.raises(ConfigurationError):
            WorkerPool(accuracy_range=(0.9, 0.5))

    def test_invalid_size(self):
        with pytest.raises(ConfigurationError):
            WorkerPool(size=0)

    def test_assignment_is_per_pair_deterministic(self):
        pool = WorkerPool(size=20, seed=1)
        first = [w.worker_id for w in pool.assign((3, 7), 5)]
        second = [w.worker_id for w in pool.assign((3, 7), 5)]
        assert first == second

    def test_assignment_distinct_workers(self):
        pool = WorkerPool(size=20, seed=1)
        ids = [w.worker_id for w in pool.assign((1, 2), 5)]
        assert len(set(ids)) == 5

    def test_assignment_too_large(self):
        pool = WorkerPool(size=3, seed=1)
        with pytest.raises(ConfigurationError):
            pool.assign((0, 1), 5)

    def test_mean_accuracy_within_band(self):
        pool = WorkerPool(size=200, accuracy_range="70", seed=0)
        assert 0.72 <= pool.mean_accuracy <= 0.78


class TestSpammers:
    def test_always_yes(self):
        worker = Worker(worker_id=0, accuracy=0.9, seed=0, behavior="always-yes")
        assert worker.answer((0, 1), False) is True
        assert worker.answer((2, 3), True) is True

    def test_always_no(self):
        worker = Worker(worker_id=0, accuracy=0.9, seed=0, behavior="always-no")
        assert worker.answer((0, 1), True) is False

    def test_random_ignores_truth(self):
        worker = Worker(worker_id=0, accuracy=1.0, seed=1, behavior="random")
        yes = sum(worker.answer((i, i + 1), True) for i in range(0, 2000, 2))
        assert 350 <= yes <= 650  # ~half, independent of the truth

    def test_random_deterministic_per_pair(self):
        worker = Worker(worker_id=0, accuracy=1.0, seed=1, behavior="random")
        assert worker.answer((4, 5), True) == worker.answer((4, 5), False)

    def test_unknown_behavior_rejected(self):
        with pytest.raises(ConfigurationError):
            Worker(worker_id=0, accuracy=0.9, seed=0, behavior="chaotic")

    def test_pool_spammer_fraction(self):
        pool = WorkerPool(size=40, seed=2, spammer_fraction=0.25)
        spammers = [w for w in pool.workers if w.behavior != "honest"]
        assert len(spammers) == 10

    def test_pool_spammer_validation(self):
        with pytest.raises(ConfigurationError):
            WorkerPool(spammer_fraction=1.5)
        with pytest.raises(ConfigurationError):
            WorkerPool(spammer_behavior="honest")

    def test_dawid_skene_downweights_spammers(self):
        """EM should estimate random spammers near 0.5 accuracy."""
        from repro.crowd.quality import DawidSkeneEstimator

        pool = WorkerPool(size=20, accuracy_range=(0.85, 0.95), seed=5,
                          spammer_fraction=0.3)
        truth = {(i, i + 1): bool(i % 4 == 0) for i in range(0, 1200, 2)}
        votes = {}
        for pair, answer in truth.items():
            workers = pool.assign(pair, 5)
            votes[pair] = [(w.worker_id, w.answer(pair, answer)) for w in workers]
        result = DawidSkeneEstimator(prior_yes=0.25).estimate(votes)
        spammers = [w.worker_id for w in pool.workers if w.behavior != "honest"]
        honest = [w.worker_id for w in pool.workers if w.behavior == "honest"]
        import numpy as np

        assert np.mean([result.accuracies[w] for w in spammers]) < 0.65
        assert np.mean([result.accuracies[w] for w in honest]) > 0.8


class TestBatchedDraws:
    """The crowd-round kernel against numpy's own per-key generators."""

    PAIRS = [(3 * k, 3 * k + 1 + k % 5) for k in range(40)]

    @pytest.mark.parametrize("seed", [0, 1, 2**32 + 5])
    def test_kernel_matches_numpy_per_key_generators(self, seed):
        """``check_crowd_draws``: draws, panels (tail shuffle included) and
        whole rounds on both sides of the crossover, against numpy."""
        from repro.verify import check_crowd_draws

        check_crowd_draws(seed)

    @pytest.mark.parametrize("behavior", ["random", "always-yes", "always-no"])
    def test_answer_many_equals_worker_answer(self, behavior):
        from repro.crowd.worker import answer_many

        pool = WorkerPool(
            size=20, accuracy_range="70", seed=7, spammer_fraction=0.4,
            spammer_behavior=behavior,
        )
        panels = pool.assign_many(self.PAIRS, 5)
        truths = [k % 3 == 0 for k in range(len(self.PAIRS))]
        difficulties = [(0.0, 2.5, float("nan"), 1.0)[k % 4] for k in range(len(self.PAIRS))]
        expected = [
            [worker.answer(pair, truth, d) for worker in panel]
            for panel, pair, truth, d in zip(panels, self.PAIRS, truths, difficulties)
        ]
        assert answer_many(panels, self.PAIRS, truths, difficulties) == expected

    def test_nan_difficulty_keeps_the_half_error_cap(self):
        """``min(0.5, nan)`` is 0.5: a NaN difficulty is a coin-flip worker."""
        from repro.crowd.worker import answer_many

        worker = Worker(worker_id=0, accuracy=0.9, seed=0)
        pairs = [(k, k + 1) for k in range(0, 400, 2)]
        panels = [[worker]] * len(pairs)
        votes = answer_many(panels, pairs, [True] * len(pairs), [float("nan")] * len(pairs))
        share = sum(row[0] for row in votes) / len(pairs)
        assert 0.35 < share < 0.65

    def test_negative_difficulty_rejected_in_a_batch(self):
        from repro.crowd.worker import answer_many

        pool = WorkerPool(size=10, seed=0)
        panels = pool.assign_many(self.PAIRS, 3)
        with pytest.raises(ConfigurationError):
            answer_many(panels, self.PAIRS, [True] * 40, [1.0] * 39 + [-0.5])

    def test_ids_beyond_64_bits_take_the_per_stream_path(self):
        from repro.crowd.worker import answer_many

        pool = WorkerPool(size=10, seed=3)
        pairs = [(2**64 + k, 2**64 + k + 1) for k in range(0, 30, 2)]
        panels = pool.assign_many(pairs, 3)
        assert panels == [pool.assign(pair, 3) for pair in pairs]
        votes = answer_many(panels, pairs, [True] * len(pairs), [1.0] * len(pairs))
        assert votes == [
            [worker.answer(pair, True) for worker in panel]
            for panel, pair in zip(panels, pairs)
        ]
