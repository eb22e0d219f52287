"""The sharded resolution facade: ``ShardedResolver``.

Drop-in for :class:`~repro.core.resolver.PowerResolver` — same
``resolve(table, session=..., worker_band=...)`` signature, same
:class:`~repro.core.resolver.ResolutionResult` — that spreads the work
across CPU cores through :class:`~repro.shard.executor.ShardExecutor`.
Two execution modes:

* ``mode="exact"`` (default) — **lockstep data parallelism**.  The
  coordinator runs the real selector, RNG, and crowd session in exactly
  the serial order; workers compute the data-parallel pieces (candidate-
  join probe ranges, similarity vector chunks, dominance-adjacency row
  blocks, per-slice inference-vote deltas) whose merges are associative
  and order-free.  The result is
  **bit-identical** to ``PowerResolver.resolve`` — same matches, same
  question transcript, same iteration count, same bill — for *any* shard
  count and *any* worker count, including after worker crashes, timeouts,
  and in-process fallbacks.  This is the mode the
  ``check_shard_equivalence`` differential certifies.
* ``mode="independent"`` — **CrowdER-style component sharding**.  The
  candidate graph is partitioned into connected components, giant
  components are split on their weakest edges under the
  ``shard_max_pairs`` cap, blocks are LPT-packed into balanced shards,
  and each shard runs its own full selection/crowd loop with a seed
  derived from the global seed and the shard id.  Shards never exchange
  inference, so question counts can exceed the serial run's (weak-edge
  cuts forfeit exactly the cross-cut inference) — the trade the paper's
  related work (CrowdER; Mazumdar & Saha's independently-resolvable
  clusters) accepts for horizontal scale.  Results are deterministic and
  schedule-independent, and a global question/money budget is split
  across shards with the same :class:`~repro.engine.budget.BudgetGuard`
  arithmetic the engine uses.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

from ..core.clustering import clusters_from_matches
from ..core.config import PowerConfig
from ..core.resolver import PowerResolver, ResolutionResult
from ..crowd.platform import CrowdSession
from ..data.ground_truth import true_match_pairs
from ..data.table import Table
from ..exceptions import ConfigurationError, DataError, SelectionError
from ..graph.coloring import ColoringState
from ..graph.dag import OrderedGraph
from ..obs import instrument as obs_instrument
from ..selection.base import SelectionResult
from ..selection.error_tolerant import (
    ErrorPolicy,
    resolve_blue_pairs,
    resolve_undecided_vertices,
)
from .executor import ShardExecutor, questions_for_cents, split_question_budget
from .merge import (
    apply_answer_batch,
    merge_adjacency_blocks,
    merge_independent_outcomes,
    merge_vector_chunks,
    merge_vote_deltas,
    merged_clusters,
)
from .partition import plan_pair_shards, vertex_slices
from .worker import (
    AdjacencyTask,
    IndependentShardTask,
    JoinTask,
    PropagationTask,
    VectorTask,
    compute_adjacency,
    compute_join_pairs,
    compute_vectors,
    compute_vote_deltas,
    derive_shard_seed,
    resolve_shard,
)

#: Execution modes of :class:`ShardedResolver`.
SHARD_MODES = ("exact", "independent")


class ShardedResolver(PowerResolver):
    """Multi-process Power/Power+ with a deterministic merge.

    Args:
        config: the pipeline configuration; ``config.shards`` sets the
            number of shard work units (``None`` → one per worker),
            ``config.shard_max_pairs`` the independent-mode component size
            cap, ``config.shard_retries`` the per-task retry budget.
        workers: worker-process count; ``0`` runs every task inline (no
            processes — deterministic and dependency-free, the mode the
            verification battery uses); ``None`` → ``min(shards,
            cpu_count)``.
        mode: ``"exact"`` (bit-identical lockstep, default) or
            ``"independent"`` (per-shard full loops, CrowdER-style).
        timeout: per-task seconds before a worker is declared hung;
            ``None`` disables.
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

    def resolve(
        self,
        table: Table,
        session: CrowdSession | None = None,
        worker_band: str | tuple[float, float] = "90",
        engine=None,
        budget: int | None = None,
        max_cents: float | None = None,
    ) -> ResolutionResult:
        """Run the sharded pipeline on *table*.

        Args:
            table / session / worker_band: as
                :meth:`PowerResolver.resolve`.
            engine: not supported on the sharded path (the engine's event
                loop is a different concurrency story); pass the engine to
                the serial resolver instead.
            budget: optional global cap on distinct crowd questions.
            max_cents: optional global money cap, converted to a question
                budget through the
                :class:`~repro.engine.budget.BudgetGuard` billing
                inversion and combined with *budget* (the tighter wins).
        """
        if engine is not None:
            raise ConfigurationError(
                "ShardedResolver does not drive the event engine; use "
                "PowerResolver(engine=...) for fault-simulation runs"
            )
        planned, plan = self._planned_clone(table)
        if plan is not None:
            result = planned.resolve(
                table, session, worker_band, engine, budget, max_cents
            )
            self.last_plan = plan
            result.selection.extras["plan"] = plan.to_payload()
            return result
        if max_cents is not None:
            affordable = questions_for_cents(
                max_cents, assignments=self.config.assignments
            )
            budget = affordable if budget is None else min(budget, affordable)
        if self.mode == "independent":
            return self._resolve_independent(table, session, worker_band, budget)
        return self._resolve_exact(table, session, worker_band, budget)

    # ------------------------------------------------------------------ #
    # Exact lockstep mode
    # ------------------------------------------------------------------ #

    def _resolve_exact(
        self,
        table: Table,
        session: CrowdSession | None,
        worker_band: str | tuple[float, float],
        budget: int | None,
    ) -> ResolutionResult:
        timings: dict[str, float] = {}
        obs = obs_instrument.current()
        tracer = obs.tracer
        with self._executor() as executor, tracer.span(
            "shard.resolve",
            dataset=table.name,
            mode="exact",
            shards=self.num_shards,
            workers=self.workers,
        ):
            # Stage 1: the candidate similarity join, tiled by probe-record
            # ranges (the join dominates large-table wall time).
            started = time.perf_counter()
            with tracer.span("shard.join"):
                pairs = self._parallel_candidate_pairs(table, executor)
            timings["join"] = time.perf_counter() - started
            if not pairs:
                raise DataError(
                    f"no candidate pairs survive pruning at threshold "
                    f"{self.config.pruning_threshold} on table {table.name!r}"
                )
            # Stage 2: similarity vectors, chunked by pair ranges.
            started = time.perf_counter()
            with tracer.span("shard.vectors", pairs=len(pairs)):
                similarity = self.similarity_config(table)
                chunks = [
                    VectorTask(
                        start=lo,
                        pairs=tuple(pairs[lo:hi]),
                        table=table,
                        config=similarity,
                        use_batch=self.config.use_batch_similarity,
                    )
                    for lo, hi in vertex_slices(len(pairs), self.num_shards)
                ]
                vectors = merge_vector_chunks(
                    executor.run(
                        compute_vectors, chunks, weights=[len(c.pairs) for c in chunks]
                    )
                )
            timings["vectors"] = time.perf_counter() - started

            # Stage 3: the (grouped) graph, with adjacency built in
            # parallel row blocks and attached to the graph's cache.
            started = time.perf_counter()
            with tracer.span("shard.graph"):
                graph = self.build_graph(table, pairs, vectors=vectors)
                self._attach_parallel_adjacency(graph, executor)
            timings["graph"] = time.perf_counter() - started

            # Stage 4: the lockstep selection loop.
            if session is None:
                session = self.simulated_crowd(table, pairs, worker_band).session()
            started = time.perf_counter()
            with tracer.span("shard.selection"):
                selection = self._run_lockstep(graph, session, executor, budget)
            timings["selection"] = time.perf_counter() - started
            for stage, seconds in timings.items():
                obs_instrument.record_stage_seconds(
                    obs, f"shard.{stage}", seconds, dataset=table.name
                )
            obs_instrument.record_executor_stats(obs, executor.stats.as_dict())
            selection.extras["shard"] = {
                "mode": "exact",
                "shards": self.num_shards,
                "workers": self.workers,
                "timings": timings,
                "executor": executor.stats.as_dict(),
            }
        matches = selection.matches
        clusters = clusters_from_matches(len(table), matches)
        quality = None
        if table.has_ground_truth():
            from ..core.metrics import pairwise_quality

            quality = pairwise_quality(matches, true_match_pairs(table))
        return ResolutionResult(
            table_name=table.name,
            candidate_pairs=pairs,
            selection=selection,
            matches=matches,
            clusters=clusters,
            quality=quality,
        )

    def _parallel_candidate_pairs(
        self, table: Table, executor: ShardExecutor
    ) -> list:
        """The pruning join of §7.1, tiled by probe-record ranges.

        Every pair ``(a, b)`` with ``a < b`` is owned by its higher record
        id; a range task emits exactly the pairs owned by its records
        (:func:`repro.similarity.join.similar_pairs_range`), so the sorted
        concatenation over a disjoint covering tiling *is* the serial
        ``candidate_pairs`` output, pair for pair.  Ranges are cut on a
        square-root grid (record ``b`` counts intersections against ``O(b)``
        earlier records, so equal-work tiles have equal ``hi² - lo²``), and
        dispatch weights carry the same quadratic estimate for the LPT
        scheduler.

        Falls back to the serial join only when the table is trivial or
        the plan has a single shard.  With ``workers=0`` the tiles still run
        (inline), so the equivalence differential attacks the tiling
        decomposition itself.
        """
        if self.num_shards <= 1 or len(table) < 2:
            return self.candidate_pairs(table)
        boundaries = sorted(
            {
                round(len(table) * math.sqrt(step / self.num_shards))
                for step in range(self.num_shards + 1)
            }
            | {0, len(table)}
        )
        ranges = [
            (lo, hi)
            for lo, hi in zip(boundaries, boundaries[1:])
            if lo < hi
        ]
        tasks = [
            JoinTask(
                table=table,
                threshold=self.config.pruning_threshold,
                lo=lo,
                hi=hi,
                tokens=self.config.join_tokens,
            )
            for lo, hi in ranges
        ]
        chunks = executor.run(
            compute_join_pairs,
            tasks,
            weights=[float(hi * hi - lo * lo) for lo, hi in ranges],
        )
        merged: list = []
        for chunk in chunks:
            merged.extend(chunk)
        merged.sort()
        return merged

    def _attach_parallel_adjacency(
        self, graph: OrderedGraph, executor: ShardExecutor
    ) -> None:
        """Build ``graph.adjacency()`` from parallel row blocks.

        Concatenating per-range outputs of the blocked kernel in row order
        is exactly the full-range output (each row's children are computed
        independently of the tiling), so the cached adjacency is
        bit-identical to what the serial path would build lazily.
        """
        operands = graph._dominance_operands()
        if operands is None or len(graph) == 0:
            return
        dominant, dominated = operands
        tasks = [
            AdjacencyTask(dominant=dominant, dominated=dominated, lo=lo, hi=hi)
            for lo, hi in vertex_slices(len(graph), self.num_shards)
        ]
        blocks = executor.run(
            compute_adjacency, tasks, weights=[task.hi - task.lo for task in tasks]
        )
        graph._adjacency = merge_adjacency_blocks(blocks, len(graph))

    def _run_lockstep(
        self,
        graph: OrderedGraph,
        session: CrowdSession,
        executor: ShardExecutor,
        budget: int | None = None,
    ) -> SelectionResult:
        """The serial ask/color loop with parallel inference propagation.

        Mirrors :meth:`repro.selection.base.QuestionSelector.run` statement
        for statement — same selector, same RNG consumption order, same
        session, same guard and budget semantics — except that each crowd
        round's vote propagation is computed as per-slice deltas in the
        workers and merged through :func:`merge_vote_deltas` /
        :func:`apply_answer_batch` (proven equivalent to the serial
        one-answer-at-a-time engine; see those docstrings).
        """
        if budget is not None and budget < 0:
            raise SelectionError(f"budget must be >= 0, got {budget}")
        obs = obs_instrument.current()
        tracer = obs.tracer
        selector = self.make_selector()
        selector.reset()
        rng = np.random.default_rng(selector.seed)
        state = ColoringState(graph)
        operands = graph._dominance_operands()
        slices = vertex_slices(len(graph), self.num_shards) if len(graph) else []
        threshold = (
            selector.error_policy.confidence_threshold
            if selector.error_policy
            else None
        )
        assignment_time = 0.0
        propagate_seconds = 0.0
        rounds = 0
        guard = 0
        per_round: list[dict] = []
        while not state.is_complete():
            remaining = None if budget is None else budget - session.questions_asked
            if remaining is not None and remaining <= 0:
                break
            guard += 1
            if guard > 10 * len(graph) + 10:
                raise SelectionError(
                    f"{selector.name}: no progress after {guard} iterations"
                )
            with tracer.span("selection.round", round=rounds) as round_span:
                colored_before = len(state.uncolored())
                timer = time.perf_counter()
                vertices = selector.select(graph, state, rng)
                cover_seconds = time.perf_counter() - timer
                assignment_time += cover_seconds
                vertices = [v for v in vertices if state.colors[v] == 0]
                if not vertices:
                    raise SelectionError(
                        f"{selector.name}: selected no uncolored vertices while "
                        f"{len(state.uncolored())} remain"
                    )
                if remaining is not None:
                    vertices = vertices[:remaining]
                vertices = obs_instrument.observe_round(
                    obs, selector.name, rounds, vertices, cover_seconds
                )
                questions = {
                    vertex: graph.representative_pair(vertex, rng)
                    for vertex in vertices
                }
                answers = session.ask_batch(questions.values())
                answered: list[tuple[int, bool | None]] = []
                for vertex, pair in questions.items():
                    outcome = answers[pair]
                    if threshold is not None and outcome.confidence < threshold:
                        answered.append((vertex, None))
                    else:
                        answered.append((vertex, bool(outcome.answer)))
                timer = time.perf_counter()
                self._propagate_batch(
                    graph, state, executor, operands, slices, answered
                )
                round_propagate = time.perf_counter() - timer
                propagate_seconds += round_propagate
                newly_colored = colored_before - len(state.uncolored())
                round_span.set_attribute("asked", len(vertices))
                round_span.set_attribute("colored", newly_colored)
                per_round.append(
                    {
                        "round": rounds,
                        "asked": len(vertices),
                        "colored": newly_colored,
                        "cover_seconds": cover_seconds,
                        "propagate_seconds": round_propagate,
                    }
                )
            rounds += 1
        labels = state.pair_labels()
        fallback_policy = selector.error_policy or ErrorPolicy()
        if selector.error_policy is not None:
            labels.update(resolve_blue_pairs(graph, state, selector.error_policy))
        uncolored = state.uncolored()
        if uncolored.size:
            labels.update(
                resolve_undecided_vertices(graph, state, uncolored, fallback_policy)
            )
        telemetry = {
            "cover_seconds": assignment_time,
            "propagate_seconds": propagate_seconds,
            "rounds": rounds,
            "incremental": selector.incremental and graph.reachability is not None,
            "per_round": per_round,
        }
        engine_stats = selector._selection_stats()
        if engine_stats is not None:
            telemetry["engine"] = engine_stats
        obs_instrument.record_selection_metrics(obs, selector.name, telemetry)
        return SelectionResult(
            name=selector.name,
            labels=labels,
            questions=session.questions_asked,
            iterations=session.iterations,
            assignment_time=assignment_time,
            state=state,
            cost_cents=session.cost_cents,
            extras={"selection": telemetry},
        )

    def _propagate_batch(
        self,
        graph: OrderedGraph,
        state: ColoringState,
        executor: ShardExecutor,
        operands: tuple[np.ndarray, np.ndarray] | None,
        slices: list[tuple[int, int]],
        answered: list[tuple[int, bool | None]],
    ) -> None:
        """Apply one round's answers with shard-parallel vote propagation."""
        green = [vertex for vertex, answer in answered if answer is True]
        red = [vertex for vertex, answer in answered if answer is False]
        if operands is None or not slices or not (green or red):
            # No operand form (custom graph) or a BLUE-only round: the
            # serial engine is already the fastest correct path.
            for vertex, answer in answered:
                if answer is None:
                    state.mark_blue(vertex)
                else:
                    state.apply_answer(vertex, answer)
            return
        dominant, dominated = operands
        tasks = [
            PropagationTask(
                dominant_block=dominant[lo:hi],
                dominated_block=dominated[lo:hi],
                lo=lo,
                green_vertices=tuple(green),
                green_rows=dominated[green],
                red_vertices=tuple(red),
                red_rows=dominant[red],
            )
            for lo, hi in slices
        ]
        deltas = executor.run(
            compute_vote_deltas, tasks, weights=[len(t.dominant_block) for t in tasks]
        )
        green_delta, red_delta = merge_vote_deltas(deltas, len(graph))
        apply_answer_batch(state, answered, green_delta, red_delta)

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
        from ..core.metrics import pairwise_quality

        quality = pairwise_quality(matches, true_match_pairs(table))
        return ResolutionResult(
            table_name=table.name,
            candidate_pairs=pairs,
            selection=selection,
            matches=matches,
            clusters=clusters,
            quality=quality,
        )


__all__ = ["SHARD_MODES", "ShardedResolver"]
