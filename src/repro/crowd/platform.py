"""The simulated crowdsourcing platform and per-algorithm sessions.

:class:`SimulatedCrowd` plays the role of AMT in the paper's setup (§7.1):
every pair has one cached, worker-voted answer, so different algorithms that
ask the same pair observe the same answer.  :class:`CrowdSession` is one
algorithm's ledger on top of the shared platform — it counts the questions
the algorithm asked, the iterations (batches) it used, and the monetary cost
under the paper's pricing (ten pairs per HIT, ten cents per HIT, ``z``
assignments per question).

A crowd round is one batch of HITs posted at once, and
:meth:`SimulatedCrowd.answer_batch` answers it in one pass: it validates
the whole batch, draws every uncached pair's worker panel and votes
together (:meth:`~repro.crowd.worker.WorkerPool.assign_many`,
:func:`~repro.crowd.worker.answer_many`), then aggregates and caches pair
by pair.  Answers stay order-independent: a pair's outcome depends only on
the pair, never on which round asked it or what else that round held.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence

from ..data.ground_truth import Pair, canonical_pair
from ..exceptions import ConfigurationError, CrowdError
from .aggregate import VoteOutcome, majority_vote, weighted_majority_vote
from .worker import Worker, WorkerPool, answer_many


class SimulatedCrowd:
    """A crowdsourcing platform backed by ground truth and simulated workers.

    Args:
        truth: ground-truth answer per pair (True = same entity).  Asking a
            pair absent from this mapping raises :class:`CrowdError`.
        pool: the worker pool; defaults to a fresh 90 %-band pool.
        assignments: workers per question, ``z`` (paper default 5); at
            most the pool's size, since a question's workers are distinct.
        aggregation: ``"majority"`` or ``"weighted"`` (weighted by worker
            accuracy; the paper's §7.1 default).
        difficulty: optional per-pair difficulty in [0, 2] scaling worker
            error probabilities.  ``None`` (default) reproduces the paper's
            §7.2.2 simulation, where workers err uniformly at the band rate;
            a mapping models the real-crowd regime of §7.2.1, where errors
            concentrate on genuinely ambiguous pairs (see
            :func:`ambiguity_difficulty` for the standard choice).
    """

    def __init__(
        self,
        truth: Mapping[Pair, bool],
        pool: WorkerPool | None = None,
        assignments: int = 5,
        aggregation: str = "weighted",
        difficulty: Mapping[Pair, float] | None = None,
    ) -> None:
        if assignments < 1:
            raise ConfigurationError(f"assignments must be >= 1, got {assignments}")
        if aggregation not in ("majority", "weighted"):
            raise ConfigurationError(
                f"aggregation must be 'majority' or 'weighted', got {aggregation!r}"
            )
        self.truth = {
            pair if pair[0] < pair[1] else canonical_pair(*pair): bool(value)
            for pair, value in truth.items()
        }
        self.pool = pool if pool is not None else WorkerPool()
        if assignments > len(self.pool):
            raise ConfigurationError(
                f"cannot assign {assignments} workers from a pool of {len(self.pool)}"
            )
        self.assignments = assignments
        self.aggregation = aggregation
        self.difficulty = (
            None
            if difficulty is None
            else {canonical_pair(*pair): float(d) for pair, d in difficulty.items()}
        )
        self._cache: dict[Pair, VoteOutcome] = {}

    def answer(self, pair: Pair) -> VoteOutcome:
        """The platform's (cached) aggregated answer for *pair*."""
        return self.answer_batch([pair])[canonical_pair(*pair)]

    def answer_batch(self, pairs: Iterable[Pair]) -> dict[Pair, VoteOutcome]:
        """Answer one crowd round: every pair's (cached) aggregated answer.

        The whole batch is checked first, so a pair outside the universe
        raises :class:`CrowdError` before anything is drawn or cached.  The
        uncached pairs then get their panels and votes in one draw, and
        their outcomes enter the cache together.  Keys are canonical pairs,
        in first-asked order.
        """
        batch = self.canonical_batch(pairs)
        fresh = [pair for pair in dict.fromkeys(batch) if pair not in self._cache]
        if fresh:
            panels = self._assign(fresh)
            difficulty = self.difficulty
            ballots = answer_many(
                panels,
                fresh,
                [self.truth[pair] for pair in fresh],
                [1.0] * len(fresh)
                if difficulty is None
                else [difficulty.get(pair, 1.0) for pair in fresh],
            )
            outcomes = list(map(self._aggregate, panels, ballots))
            self._cache.update(zip(fresh, outcomes))
        return {pair: self._cache[pair] for pair in batch}

    def canonical_batch(self, pairs: Iterable[Pair]) -> list[Pair]:
        """*pairs* as canonical pairs, refusing the batch if one is unknown."""
        batch = [canonical_pair(*pair) for pair in pairs]
        for pair in batch:
            if pair not in self.truth:
                raise CrowdError(f"pair {pair} is not in the platform's universe")
        return batch

    def _assign(self, pairs: Sequence[Pair]) -> list[list[Worker]]:
        """Each pair's worker panel; subclasses may apply a policy."""
        return self.pool.assign_many(pairs, self.assignments)

    def _aggregate(self, panel: Sequence[Worker], votes: Sequence[bool]) -> VoteOutcome:
        """Combine one pair's votes; subclasses may weigh them differently."""
        if self.aggregation == "weighted":
            return weighted_majority_vote(votes, [worker.accuracy for worker in panel])
        return majority_vote(votes)

    def session(
        self, pairs_per_hit: int = 10, cents_per_hit: int = 10
    ) -> "CrowdSession":
        """Open a fresh per-algorithm ledger over this platform."""
        return CrowdSession(self, pairs_per_hit=pairs_per_hit, cents_per_hit=cents_per_hit)


def ambiguity_difficulty(
    vectors: "np.ndarray", pairs: list[Pair], floor: float = 0.1, peak: float = 1.0
) -> dict[Pair, float]:
    """Per-pair difficulty from similarity ambiguity (real-crowd regime).

    A pair whose mean attribute similarity sits near 0.5 is genuinely
    ambiguous (difficulty → *peak*); pairs near 0 or 1 are easy (difficulty
    → *floor*).  Feeding this to :class:`SimulatedCrowd` reproduces the
    §7.2.1 observation that real workers of every approval band do well on
    easy datasets: their errors concentrate where the data is ambiguous,
    not uniformly.
    """
    import numpy as np

    vectors = np.asarray(vectors, dtype=np.float64)
    means = vectors.mean(axis=1)
    # Triangle peaking at 0.5: 1 at the boundary region, 0 at the extremes.
    ambiguity = 1.0 - np.abs(2.0 * means - 1.0)
    scale = floor + (peak - floor) * ambiguity
    return {canonical_pair(*pair): float(d) for pair, d in zip(pairs, scale)}


class PerfectCrowd(SimulatedCrowd):
    """An error-free crowd: always returns the ground truth with confidence 1.

    Useful as an oracle for tests and for isolating algorithmic question
    counts from worker noise.
    """

    def __init__(self, truth: Mapping[Pair, bool], assignments: int = 5) -> None:
        super().__init__(truth, pool=WorkerPool(size=assignments), assignments=assignments)

    def answer(self, pair: Pair) -> VoteOutcome:
        pair = canonical_pair(*pair)
        try:
            truth = self.truth[pair]
        except KeyError:
            raise CrowdError(f"pair {pair} is not in the platform's universe") from None
        return VoteOutcome(
            answer=truth, confidence=1.0, votes=(truth,) * self.assignments
        )

    def answer_batch(self, pairs: Iterable[Pair]) -> dict[Pair, VoteOutcome]:
        # Its own per-pair answers (uncached), after the same batch check.
        return {pair: self.answer(pair) for pair in self.canonical_batch(pairs)}


def check_pricing(pairs_per_hit: int, cents_per_hit: int) -> None:
    """Refuse HIT pricing no session could bill: fewer than one pair per
    HIT, or a negative price."""
    if pairs_per_hit < 1:
        raise ConfigurationError(f"pairs_per_hit must be >= 1, got {pairs_per_hit}")
    if cents_per_hit < 0:
        raise ConfigurationError(f"cents_per_hit must be >= 0, got {cents_per_hit}")


class CrowdSession:
    """One algorithm's view of the platform, with cost/latency accounting.

    Attributes:
        questions_asked: distinct pairs this session has asked.
        iterations: number of (non-empty) batches submitted — the paper's
            latency proxy, since each batch is one round trip to the crowd.

    Cost-accounting semantics (pinned — the engine's budget guardrails in
    :mod:`repro.engine.budget` invert this formula, so it must not drift):

    * Billing is **whole-run pooled**, not per-batch: HITs are counted as
      ``ceil(distinct_questions / pairs_per_hit)``, then multiplied by the
      platform's ``z`` assignments and priced at ``cents_per_hit``.  Many
      sub-HIT rounds (say 25 one-question batches) therefore cost exactly
      the same as one 25-question batch — the platform is assumed to pack
      questions from different rounds into shared HITs, as the paper's §7.1
      pricing (ten pairs per HIT, ten cents) implicitly does when it quotes
      a single cost per run.  Round-trip *latency* is what distinguishes
      the two shapes, via ``batch_sizes`` and
      :class:`~repro.crowd.latency.LatencyModel`, never money.
    * Rounding is **ceiling, once, at the end**: a final partial HIT is
      billed in full (11 distinct questions at 10 pairs/HIT → 2 HITs × z),
      but never more than once across batches.
    * Re-asked pairs are free: ``_asked`` is a set, so asking a pair again
      adds no HITs (the platform caches its answer).
    """

    def __init__(
        self,
        crowd: SimulatedCrowd,
        pairs_per_hit: int = 10,
        cents_per_hit: int = 10,
    ) -> None:
        check_pricing(pairs_per_hit, cents_per_hit)
        self.crowd = crowd
        self.pairs_per_hit = pairs_per_hit
        self.cents_per_hit = cents_per_hit
        self._asked: set[Pair] = set()
        self.iterations = 0
        #: Questions per round, in order — feeds the latency model.
        self.batch_sizes: list[int] = []

    def ask(self, pair: Pair) -> VoteOutcome:
        """Ask a single pair as its own iteration."""
        return self.ask_batch([pair])[canonical_pair(*pair)]

    def ask_batch(self, pairs: Iterable[Pair]) -> dict[Pair, VoteOutcome]:
        """Ask a batch of pairs in parallel; counts as one iteration.

        Re-asking a pair already asked in this session returns the cached
        answer and is not billed again.  A batch the platform refuses (a
        pair outside its universe) raises before anything is counted,
        billed or cached.
        """
        batch = [canonical_pair(*pair) for pair in pairs]
        if not batch:
            return {}
        answers = self.crowd.answer_batch(batch)
        self.iterations += 1
        self.batch_sizes.append(len(batch))
        self._asked.update(batch)
        return answers

    @property
    def questions_asked(self) -> int:
        return len(self._asked)

    @property
    def asked_pairs(self) -> frozenset[Pair]:
        return frozenset(self._asked)

    @property
    def hits(self) -> int:
        """HITs consumed: ceil(questions / pairs-per-HIT) × assignments."""
        if not self._asked:
            return 0
        return math.ceil(len(self._asked) / self.pairs_per_hit) * self.crowd.assignments

    @property
    def cost_cents(self) -> int:
        """Monetary cost in cents under the paper's pricing (§7.1)."""
        return self.hits * self.cents_per_hit
