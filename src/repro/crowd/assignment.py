"""Question-to-worker assignment policies (the §2.2.2 QASCA idea).

The paper's related work cites quality-aware task assignment ("assigning
questions to appropriate workers").  The default platform assigns workers
to questions uniformly at random; this module adds alternatives:

* :class:`RandomAssignment` — the default, stateless and fair.
* :class:`BestWorkerAssignment` — always pick the highest-(estimated-)
  accuracy workers, subject to a per-worker load cap so a single expert
  cannot answer everything (platforms throttle workers in practice).
* :class:`RoundRobinAssignment` — spread load evenly regardless of quality
  (the fairness baseline).

A policy plugs into :class:`AssigningCrowd`, a
:class:`~repro.crowd.platform.SimulatedCrowd` whose worker selection is
delegated (pair by pair, in the round's order, so stateful policies see
the same sequence as one-at-a-time asking); everything else (voting,
caching, cost) is inherited.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import defaultdict
from collections.abc import Mapping, Sequence

from ..data.ground_truth import Pair
from ..exceptions import ConfigurationError
from .platform import SimulatedCrowd
from .worker import Worker, WorkerPool


class AssignmentPolicy(ABC):
    """Chooses which workers answer a question."""

    @abstractmethod
    def assign(self, pool: WorkerPool, pair: Pair, count: int) -> list[Worker]:
        """Pick *count* distinct workers from *pool* for *pair*."""


class RandomAssignment(AssignmentPolicy):
    """The platform default: uniform random, deterministic per pair."""

    def assign(self, pool: WorkerPool, pair: Pair, count: int) -> list[Worker]:
        return pool.assign(pair, count)


class RoundRobinAssignment(AssignmentPolicy):
    """Spread questions evenly across the pool (fairness baseline)."""

    def __init__(self) -> None:
        self._cursor = 0

    def assign(self, pool: WorkerPool, pair: Pair, count: int) -> list[Worker]:
        if count > len(pool):
            raise ConfigurationError(
                f"cannot assign {count} workers from a pool of {len(pool)}"
            )
        chosen = [
            pool.workers[(self._cursor + offset) % len(pool)]
            for offset in range(count)
        ]
        self._cursor = (self._cursor + count) % len(pool)
        return chosen


class BestWorkerAssignment(AssignmentPolicy):
    """Prefer the most accurate workers, under a per-worker load cap.

    Args:
        accuracies: estimated accuracy per worker id (e.g. from
            :func:`repro.crowd.quality.estimate_accuracy_from_gold` or
            Dawid-Skene); workers absent from the mapping rank last.
        max_load_share: no worker may answer more than this fraction of all
            assignments handed out so far (plus a small burst allowance),
            modelling platform throttling and keeping the panel diverse.
    """

    def __init__(
        self,
        accuracies: Mapping[int, float],
        max_load_share: float = 0.25,
    ) -> None:
        if not accuracies:
            raise ConfigurationError("need at least one accuracy estimate")
        if not 0.0 < max_load_share <= 1.0:
            raise ConfigurationError(
                f"max_load_share must be in (0, 1], got {max_load_share}"
            )
        self.accuracies = dict(accuracies)
        self.max_load_share = max_load_share
        self._load: dict[int, int] = defaultdict(int)
        self._total = 0

    def assign(self, pool: WorkerPool, pair: Pair, count: int) -> list[Worker]:
        if count > len(pool):
            raise ConfigurationError(
                f"cannot assign {count} workers from a pool of {len(pool)}"
            )
        burst = 5 * count  # allowance so the first questions aren't starved
        cap = self.max_load_share * (self._total + burst)
        ranked = sorted(
            pool.workers,
            key=lambda worker: (
                -(self.accuracies.get(worker.worker_id, 0.0)),
                worker.worker_id,
            ),
        )
        chosen: list[Worker] = []
        for worker in ranked:
            if len(chosen) == count:
                break
            if self._load[worker.worker_id] < cap:
                chosen.append(worker)
        # If the cap starved us (tiny pools), fall back to least-loaded.
        if len(chosen) < count:
            leftovers = [w for w in ranked if w not in chosen]
            leftovers.sort(key=lambda w: (self._load[w.worker_id], w.worker_id))
            chosen.extend(leftovers[: count - len(chosen)])
        for worker in chosen:
            self._load[worker.worker_id] += 1
        self._total += count
        return chosen


class AssigningCrowd(SimulatedCrowd):
    """A simulated crowd whose worker selection follows a policy."""

    def __init__(
        self,
        truth: Mapping[Pair, bool],
        pool: WorkerPool,
        policy: AssignmentPolicy,
        assignments: int = 5,
        aggregation: str = "weighted",
        difficulty: Mapping[Pair, float] | None = None,
    ) -> None:
        super().__init__(
            truth,
            pool=pool,
            assignments=assignments,
            aggregation=aggregation,
            difficulty=difficulty,
        )
        self.policy = policy

    def _assign(self, pairs: Sequence[Pair]) -> list[list[Worker]]:
        # A stateful policy (round-robin, best-worker) runs in pair order.
        return [self.policy.assign(self.pool, pair, self.assignments) for pair in pairs]
