"""The sharded resolution facade: ``ShardedResolver``.

Drop-in for :class:`~repro.core.resolver.PowerResolver` — same
``resolve(table, session=..., worker_band=...)`` signature, same
:class:`~repro.core.resolver.ResolutionResult`.  Two execution modes:

* ``mode="exact"`` (default) — **the serial pipeline, in the calling
  process**.  It is :meth:`PowerResolver.resolve` itself, with the
  question budget handed to the selector, so the result is
  **bit-identical** to the serial resolver by construction — same
  matches, same question transcript, same iteration count, same bill —
  for any ``workers``/``shards`` setting.  It opens no
  :class:`~repro.shard.executor.ShardExecutor`: on a 2-vCPU host, worker
  tasks for the join, the vectors and the vote propagation each lost to
  their serial stage (DESIGN.md §10).  ``check_shard_equivalence`` still
  certifies it against the serial resolver.
* ``mode="independent"`` — **CrowdER-style component sharding**, the mode
  that uses worker processes.  The candidate graph is partitioned into
  connected components, giant components are split on their weakest
  edges under the ``shard_max_pairs`` cap, blocks are LPT-packed into
  balanced shards, and each shard runs its own full selection/crowd loop
  in a worker with a seed derived from the global seed and the shard id.
  Shards never exchange inference, so question counts can exceed the
  serial run's (weak-edge cuts forfeit exactly the cross-cut inference) —
  the trade the paper's related work (CrowdER; Mazumdar & Saha's
  independently-resolvable clusters) accepts for horizontal scale.
  Results are deterministic and schedule-independent, and a global
  question/money budget is split across shards with the same
  :class:`~repro.engine.budget.BudgetGuard` arithmetic the engine uses.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

# benchmarks/e2e/tracing.py wraps this module's ``clusters_from_matches`` by name.
from ..core.clustering import clusters_from_matches  # noqa: F401
from ..core.config import PowerConfig
from ..core.metrics import entity_quality
from ..core.resolver import PowerResolver, ResolutionResult
from ..crowd.platform import CrowdSession
from ..data.table import Table
from ..exceptions import ConfigurationError, DataError
from ..obs import instrument as obs_instrument
from .executor import ShardExecutor, questions_for_cents, split_question_budget
from .merge import merge_independent_outcomes, merged_clusters
from .partition import plan_pair_shards
from .worker import IndependentShardTask, derive_shard_seed, resolve_shard

#: Execution modes of :class:`ShardedResolver`.
SHARD_MODES = ("exact", "independent")


class ShardedResolver(PowerResolver):
    """Power/Power+ with an optional multi-process, per-shard mode.

    Args:
        config: the pipeline configuration; in independent mode
            ``config.shards`` sets the number of shards (``None`` → one per
            worker), ``config.shard_max_pairs`` the component size cap and
            ``config.shard_retries`` the per-task retry budget.
        workers: independent-mode worker-process count; ``0`` runs every
            shard inline (no processes — deterministic and
            dependency-free); ``None`` → ``min(shards, cpu_count)``.  Exact
            mode starts no process whatever this says.
        mode: ``"exact"`` (the serial pipeline, bit-identical, default) or
            ``"independent"`` (per-shard full loops, CrowdER-style).
        timeout: independent-mode per-task seconds before a worker is
            declared hung; ``None`` disables.
        mp_context: multiprocessing start method (``None`` = platform
            default).
    """

    def __init__(
        self,
        config: PowerConfig | None = None,
        workers: int | None = None,
        mode: str = "exact",
        timeout: float | None = None,
        mp_context: str | None = None,
    ) -> None:
        super().__init__(config)
        if mode not in SHARD_MODES:
            raise ConfigurationError(
                f"mode must be one of {SHARD_MODES}, got {mode!r}"
            )
        if workers is not None and workers < 0:
            raise ConfigurationError(f"workers must be >= 0 or None, got {workers}")
        self.mode = mode
        self.timeout = timeout
        self.mp_context = mp_context
        if workers is None:
            limit = os.cpu_count() or 1
            workers = min(self.config.shards or limit, limit)
        self.workers = workers

    @property
    def num_shards(self) -> int:
        """Shard work units: ``config.shards``, else one per worker."""
        return self.config.shards or max(1, self.workers)

    def _executor(self) -> ShardExecutor:
        return ShardExecutor(
            workers=self.workers,
            retries=self.config.shard_retries,
            timeout=self.timeout,
            mp_context=self.mp_context,
        )

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #

    def question_budget(
        self, budget: int | None, max_cents: float | None
    ) -> int | None:
        """*budget* tightened by *max_cents* (the tighter cap wins).

        Cents become questions through the
        :class:`~repro.engine.budget.BudgetGuard` billing inversion
        (:func:`~repro.shard.executor.questions_for_cents`).
        """
        if max_cents is None:
            return budget
        affordable = questions_for_cents(max_cents, assignments=self.config.assignments)
        return affordable if budget is None else min(budget, affordable)

    def resolve(
        self,
        table: Table,
        session: CrowdSession | None = None,
        worker_band: str | tuple[float, float] = "90",
        engine=None,
        budget: int | None = None,
        max_cents: float | None = None,
    ) -> ResolutionResult:
        """Run the pipeline on *table* in the configured mode.

        Args:
            table / session / worker_band: as
                :meth:`PowerResolver.resolve`.
            engine: not supported here; pass the engine to the serial
                resolver instead.
            budget: optional global cap on distinct crowd questions.
            max_cents: optional global money cap, combined with *budget*
                by :meth:`question_budget`.
        """
        if engine is not None:
            raise ConfigurationError(
                "ShardedResolver does not drive the event engine; use "
                "PowerResolver(engine=...) for fault-simulation runs"
            )
        budget = self.question_budget(budget, max_cents)
        if self.mode == "independent":
            return self._resolve_independent(table, session, worker_band, budget)
        result = super().resolve(table, session, worker_band, budget=budget)
        result.selection.extras["shard"] = {"mode": "exact"}
        return result

    # ------------------------------------------------------------------ #
    # Independent mode
    # ------------------------------------------------------------------ #

    def _pair_weights(self, table: Table, pairs: list) -> np.ndarray:
        """Record-level Jaccard per candidate pair (weak-edge weights)."""
        from ..similarity.batch import TokenIndex
        from ..similarity.tokenize import qgram_tokens, word_tokens

        texts = [table.record_text(record) for record in range(len(table))]
        tokenizer = qgram_tokens if self.config.join_tokens == "qgram" else word_tokens
        index = TokenIndex(texts, tokenizer)
        left = np.fromiter((pair[0] for pair in pairs), dtype=np.int64, count=len(pairs))
        right = np.fromiter((pair[1] for pair in pairs), dtype=np.int64, count=len(pairs))
        return index.jaccard_pairs(left, right)

    def _resolve_independent(
        self,
        table: Table,
        session: CrowdSession | None,
        worker_band: str | tuple[float, float],
        budget: int | None,
    ) -> ResolutionResult:
        if session is not None:
            raise ConfigurationError(
                "independent mode builds one simulated crowd per shard from "
                "ground truth; an external session cannot be split — use "
                "mode='exact' (which shares your session) instead"
            )
        if not table.has_ground_truth():
            raise DataError(
                f"table {table.name!r} has no ground truth; independent-mode "
                "shards need it to simulate their crowds"
            )
        timings: dict[str, float] = {}
        started = time.perf_counter()
        pairs = self.candidate_pairs(table)
        if not pairs:
            raise DataError(
                f"no candidate pairs survive pruning at threshold "
                f"{self.config.pruning_threshold} on table {table.name!r}"
            )
        weights = self._pair_weights(table, pairs)
        max_pairs = self.config.shard_max_pairs
        if max_pairs is None:
            max_pairs = max(1, math.ceil(len(pairs) / self.num_shards))
        plan = plan_pair_shards(
            pairs, self.num_shards, weights=weights, max_pairs=max_pairs
        )
        timings["partition"] = time.perf_counter() - started

        budgets: list[int | None] = [None] * len(plan)
        if budget is not None:
            budgets = list(split_question_budget(budget, plan.pair_counts))
        tasks = [
            IndependentShardTask(
                shard_id=shard.shard_id,
                table=table,
                pairs=shard.pairs,
                config=self.config,
                worker_band=worker_band,
                seed=derive_shard_seed(self.config.seed, shard.shard_id),
                budget=budgets[index],
            )
            for index, shard in enumerate(plan.shards)
        ]
        obs = obs_instrument.current()
        started = time.perf_counter()
        with self._executor() as executor, obs.tracer.span(
            "shard.resolve",
            dataset=table.name,
            mode="independent",
            shards=len(plan),
            workers=self.workers,
        ):
            outcomes = executor.run(
                resolve_shard, tasks, weights=[len(task.pairs) for task in tasks]
            )
            stats = executor.stats.as_dict()
            obs_instrument.record_executor_stats(obs, stats)
        timings["shards"] = time.perf_counter() - started
        selection = merge_independent_outcomes(
            outcomes,
            selector_name=self.config.selector,
            assignments=self.config.assignments,
        )
        selection.extras["shard"] = {
            "mode": "independent",
            "shards": len(plan),
            "workers": self.workers,
            "components": plan.num_components,
            "split_components": plan.split_components,
            "pair_counts": plan.pair_counts,
            "budgets": budgets,
            "timings": timings,
            "executor": stats,
        }
        matches = selection.matches
        clusters = merged_clusters(len(table), outcomes)
        quality = entity_quality(matches, table)
        return ResolutionResult(
            table_name=table.name,
            candidate_pairs=pairs,
            selection=selection,
            matches=matches,
            clusters=clusters,
            quality=quality,
        )


__all__ = ["SHARD_MODES", "ShardedResolver"]
