"""Shared interface for the baseline crowd-ER algorithms (§2.2, §7.1).

Baselines consume the same inputs as Power — the candidate pairs, a score
per pair, and a :class:`~repro.crowd.platform.CrowdSession` — and produce
the same :class:`~repro.selection.base.SelectionResult`, so the experiment
harness treats all five algorithms uniformly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..crowd.platform import CrowdSession
from ..data.ground_truth import Pair
from ..exceptions import ConfigurationError
from ..obs import instrument as obs_instrument
from ..selection.base import SelectionResult


class BaselineResolver(ABC):
    """A crowd-ER baseline: decides which pairs to ask and how to infer."""

    name: str = "baseline"

    def run(
        self, pairs: list[Pair], scores: np.ndarray, session: CrowdSession
    ) -> SelectionResult:
        """Resolve the candidate *pairs*, asking the crowd via *session*.

        Args:
            pairs: candidate record pairs (already similarity-pruned).
            scores: one record-level similarity per pair, used for question
                ordering / match-probability estimates.
            session: the crowd ledger for this run.

        The ``assignment_time`` is the run's ``baseline.run`` region.
        """
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape != (len(pairs),):
            raise ConfigurationError(
                f"scores shape {scores.shape} does not match {len(pairs)} pairs"
            )
        with obs_instrument.timed(
            obs_instrument.current(), "baseline.run", method=self.name
        ) as run:
            labels = self._resolve(pairs, scores, session)
        return SelectionResult(
            name=self.name,
            labels=labels,
            questions=session.questions_asked,
            iterations=session.iterations,
            assignment_time=run.seconds,
            state=None,
            cost_cents=session.cost_cents,
        )

    @abstractmethod
    def _resolve(
        self, pairs: list[Pair], scores: np.ndarray, session: CrowdSession
    ) -> dict[Pair, bool]:
        """Algorithm body: return a match decision for every candidate pair."""


def independent_batches(
    ordered: list[Pair], batch_limit: int | None = None
) -> list[list[Pair]]:
    """Greedy record-disjoint batching for parallel crowdsourcing.

    Two questions can safely be asked in the same round only if no answer to
    one could make the other inferable; sharing no record is the standard
    sufficient condition (used by the transitivity-join line of work).  The
    scan preserves the given (similarity) order.
    """
    batches: list[list[Pair]] = []
    remaining = list(ordered)
    while remaining:
        used: set[int] = set()
        batch: list[Pair] = []
        deferred: list[Pair] = []
        for pair in remaining:
            i, j = pair
            if i in used or j in used or (
                batch_limit is not None and len(batch) >= batch_limit
            ):
                deferred.append(pair)
            else:
                batch.append(pair)
                used.update(pair)
        batches.append(batch)
        remaining = deferred
    return batches
