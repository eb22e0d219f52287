"""Worker-quality estimation and quality-aware answer aggregation.

The paper's §6 takes majority voting "as an example" and notes that "any
other techniques can be integrated into our method"; §2.2.2 surveys the
quality-control literature (worker models, eliminating bad workers,
aggregation).  This module supplies those techniques:

* :func:`estimate_accuracy_from_gold` — the approval-rate approach: measure
  each worker on questions with known answers (qualification tests).
* :class:`DawidSkeneEstimator` — EM estimation of per-worker accuracy from
  the votes alone (the binary symmetric-error special case of Dawid &
  Skene, 1979): alternate between soft answer posteriors given accuracies
  and accuracy estimates given posteriors.
* :class:`QualityAwareCrowd` — a :class:`~repro.crowd.platform.
  SimulatedCrowd` that aggregates with *estimated* (not oracle) accuracies:
  log-odds weighted voting, which is the Bayes-optimal rule for independent
  binary votes.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from ..data.ground_truth import Pair, canonical_pair
from ..exceptions import ConfigurationError, CrowdError
from .aggregate import VoteOutcome
from .platform import SimulatedCrowd
from .worker import Worker, WorkerPool


def estimate_accuracy_from_gold(
    worker: Worker, gold: Mapping[Pair, bool], smoothing: float = 1.0
) -> float:
    """Estimate a worker's accuracy from questions with known answers.

    Laplace smoothing keeps estimates off the 0/1 boundary so that log-odds
    weights stay finite.
    """
    if smoothing < 0:
        raise ConfigurationError(f"smoothing must be >= 0, got {smoothing}")
    correct = sum(
        worker.answer(canonical_pair(*pair), truth) == truth
        for pair, truth in gold.items()
    )
    total = len(gold)
    return (correct + smoothing) / (total + 2 * smoothing)


@dataclass
class DawidSkeneResult:
    """Output of EM accuracy estimation.

    Attributes:
        accuracies: estimated per-worker accuracy, indexed by worker id.
        posteriors: per-question posterior probability of a Yes answer.
        iterations: EM rounds until convergence.
    """

    accuracies: dict[int, float]
    posteriors: dict[Pair, float]
    iterations: int


class DawidSkeneEstimator:
    """EM estimation of worker accuracies from redundant binary votes.

    The model: each question has a latent truth; worker ``w`` reports it
    correctly with probability ``a_w`` regardless of the true class (the
    symmetric one-coin model).  E-step: posterior of each question's truth
    given current accuracies.  M-step: each worker's accuracy is its
    expected agreement with the posteriors.

    Args:
        prior_yes: prior probability that a pair is a match (ER candidate
            sets are usually minority-positive).
        max_iterations / tolerance: EM stopping rule.
    """

    def __init__(
        self,
        prior_yes: float = 0.5,
        max_iterations: int = 100,
        tolerance: float = 1e-6,
    ) -> None:
        if not 0.0 < prior_yes < 1.0:
            raise ConfigurationError(f"prior_yes must be in (0, 1), got {prior_yes}")
        if max_iterations < 1:
            raise ConfigurationError(
                f"max_iterations must be >= 1, got {max_iterations}"
            )
        self.prior_yes = prior_yes
        self.max_iterations = max_iterations
        self.tolerance = tolerance

    def estimate(
        self, votes: Mapping[Pair, Sequence[tuple[int, bool]]]
    ) -> DawidSkeneResult:
        """Run EM on ``{pair: [(worker_id, vote), ...]}``."""
        if not votes:
            raise CrowdError("cannot estimate accuracies from zero votes")
        worker_ids = sorted({w for ballots in votes.values() for w, _ in ballots})
        accuracy = {w: 0.7 for w in worker_ids}  # neutral-optimistic start
        posteriors = {pair: self.prior_yes for pair in votes}
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            # E-step: posterior P(truth = Yes | votes, accuracies).
            new_posteriors = {}
            for pair, ballots in votes.items():
                log_yes = math.log(self.prior_yes)
                log_no = math.log(1.0 - self.prior_yes)
                for worker_id, vote in ballots:
                    a = min(max(accuracy[worker_id], 1e-6), 1 - 1e-6)
                    log_yes += math.log(a if vote else 1 - a)
                    log_no += math.log(1 - a if vote else a)
                peak = max(log_yes, log_no)
                yes = math.exp(log_yes - peak)
                no = math.exp(log_no - peak)
                new_posteriors[pair] = yes / (yes + no)
            # M-step: expected agreement, Laplace-smoothed.
            counts = {w: [1.0, 2.0] for w in worker_ids}  # [agree, total]
            for pair, ballots in votes.items():
                p = new_posteriors[pair]
                for worker_id, vote in ballots:
                    counts[worker_id][0] += p if vote else 1 - p
                    counts[worker_id][1] += 1
            new_accuracy = {w: agree / total for w, (agree, total) in counts.items()}
            drift = max(
                abs(new_accuracy[w] - accuracy[w]) for w in worker_ids
            )
            shift = max(
                abs(new_posteriors[pair] - posteriors[pair]) for pair in votes
            )
            accuracy, posteriors = new_accuracy, new_posteriors
            if max(drift, shift) < self.tolerance:
                break
        return DawidSkeneResult(
            accuracies=accuracy, posteriors=posteriors, iterations=iterations
        )


class QualityAwareCrowd(SimulatedCrowd):
    """A crowd whose aggregation uses *estimated* worker accuracies.

    Workers answer as usual; votes are combined with log-odds weights
    ``log(a / (1 - a))`` derived from accuracies estimated on a gold
    qualification set — no oracle access to the true accuracy.  This is the
    "integrate any other technique" hook of §6 made concrete, and the
    aggregation ablation bench compares it against plain and
    accuracy-weighted majority voting.

    Args:
        truth: ground truth per pair (as for :class:`SimulatedCrowd`).
        pool: worker pool.
        gold: qualification questions with known answers used to estimate
            each worker's accuracy (disjoint from the task pairs ideally).
        assignments: workers per question.
        temperature: shrinkage on the log-odds (0 < t <= 1).  Raw Bayes
            aggregation is *overconfident* when the accuracy estimates come
            from a small gold set — wrong answers then carry confidences
            above Power+'s BLUE threshold and propagate.  Tempering keeps
            the votes' direction while calibrating the confidence.
    """

    def __init__(
        self,
        truth: Mapping[Pair, bool],
        pool: WorkerPool,
        gold: Mapping[Pair, bool],
        assignments: int = 5,
        difficulty: Mapping[Pair, float] | None = None,
        temperature: float = 1.0,
    ) -> None:
        super().__init__(
            truth, pool=pool, assignments=assignments, difficulty=difficulty
        )
        if not gold:
            raise ConfigurationError("need at least one gold question")
        if not 0.0 < temperature <= 1.0:
            raise ConfigurationError(
                f"temperature must be in (0, 1], got {temperature}"
            )
        self.temperature = temperature
        self.estimated_accuracy = {
            worker.worker_id: estimate_accuracy_from_gold(worker, gold)
            for worker in pool.workers
        }

    def _aggregate(self, panel: Sequence[Worker], votes: Sequence[bool]) -> VoteOutcome:
        """Tempered log-odds vote with the gold-estimated accuracies."""
        log_odds = 0.0
        for worker, vote in zip(panel, votes):
            a = min(max(self.estimated_accuracy[worker.worker_id], 1e-6), 1 - 1e-6)
            weight = math.log(a / (1 - a))
            log_odds += weight if vote else -weight
        log_odds *= self.temperature
        probability_yes = 1.0 / (1.0 + math.exp(-log_odds))
        answer = probability_yes > 0.5
        confidence = probability_yes if answer else 1.0 - probability_yes
        return VoteOutcome(answer=answer, confidence=confidence, votes=tuple(votes))
