"""Picklable per-shard task functions (the code that runs inside workers).

Every task here is a **pure function of its spec**: no hidden process
state, no shared RNG, no ordering dependence.  That single property is what
makes the executor's fault handling trivial — a crashed, hung, or flaky
task can be retried on another worker (or run inline in the coordinator)
and produce the *same bytes*.

Two tasks exist:

* :func:`resolve_shard` — the independent mode's task: the full
  Power/Power+ graph-build → selection → crowd loop on one shard's pair
  set, with a per-shard RNG seed derived from the global seed and the
  shard id (:func:`derive_shard_seed`), so shard answers are reproducible
  regardless of which process runs them or in which order.
* :func:`compute_vectors` — one chunk of similarity vectors; the
  streaming service routes a batch with at least ``shard_threshold``
  candidate pairs through it.  Rows are per-pair independent, so the
  chunks stack (:func:`~repro.shard.merge.merge_vector_chunks`) to the
  one-shot matrix bit for bit.

Determinism of the simulated crowd is load-bearing: each worker's vote is
seeded by ``(pool seed, worker id, pair)`` and the worker assignment by
``(pool seed, pair)`` (see :mod:`repro.crowd.worker`), so the same pair
gets the same answer in every shard of every run.

:class:`FaultSpec` is the fault-injection hook used by the executor's
fault-path tests: a task spec can carry one, and the first ``limit``
attempts of that task will raise, kill the worker process, or hang.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..data.ground_truth import Pair, pair_truth
from ..data.table import Table
from ..exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.config import PowerConfig
    from ..similarity.vectors import SimilarityConfig


# --------------------------------------------------------------------------- #
# Fault injection (for the executor's fault-path tests)
# --------------------------------------------------------------------------- #


#: Fault kinds understood by :func:`maybe_fault`.
FAULT_KINDS = ("raise", "exit", "hang")


@dataclass(frozen=True)
class FaultSpec:
    """Deterministic fault injection for one task.

    The attempt counter lives in a *file* (one byte appended per attempt),
    so it survives worker-process crashes — which is exactly the failure
    mode being simulated.  Attempts ``1..limit`` fail; attempt ``limit+1``
    (and later) succeed.

    Attributes:
        path: counter file, unique per injected task.
        limit: how many attempts fail before the task starts succeeding.
        kind: ``"raise"`` (exception), ``"exit"`` (hard process death →
            ``BrokenProcessPool``), or ``"hang"`` (sleep past the timeout).
        hang_seconds: how long a ``"hang"`` fault sleeps.
    """

    path: str
    limit: int = 1
    kind: str = "raise"
    hang_seconds: float = 60.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if self.limit < 0:
            raise ConfigurationError(f"fault limit must be >= 0, got {self.limit}")


def maybe_fault(fault: FaultSpec | None) -> None:
    """Fail according to *fault* while its attempt budget lasts.

    A ``"exit"`` fault only hard-kills *worker* processes (detected via
    :func:`multiprocessing.parent_process`); when the task runs inline in
    the coordinator it degrades to an exception, so fault-path tests can
    never take the test runner down with them.
    """
    if fault is None:
        return
    with open(fault.path, "ab") as handle:
        handle.write(b"x")
        handle.flush()
        attempt = handle.tell()
    if attempt > fault.limit:
        return
    if fault.kind == "hang":
        time.sleep(fault.hang_seconds)
        return
    if fault.kind == "exit" and multiprocessing.parent_process() is not None:
        os._exit(13)
    raise RuntimeError(
        f"injected fault ({fault.kind}, attempt {attempt}/{fault.limit})"
    )


# --------------------------------------------------------------------------- #
# Seeding
# --------------------------------------------------------------------------- #


def derive_shard_seed(seed: int, shard_id: int) -> int:
    """A per-shard seed derived from the global seed and the shard id.

    Uses :class:`numpy.random.SeedSequence` so shard streams are
    statistically independent, and depends only on ``(seed, shard_id)`` —
    never on scheduling order or worker identity — so shard answers are
    reproducible across runs and process placements.
    """
    entropy = (int(seed) & 0xFFFFFFFF, int(shard_id))
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


# --------------------------------------------------------------------------- #
# Vector chunks (the stream's routed batches)
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class VectorTask:
    """One chunk of the similarity-vector computation.

    Attributes:
        start: global row index of ``pairs[0]`` (for ordered reassembly).
        pairs: the candidate pairs of this chunk.
        table: the records (rows are independent, so chunking is exact).
        config: the per-attribute similarity configuration.
    """

    start: int
    pairs: tuple[Pair, ...]
    table: Table
    config: "SimilarityConfig"
    fault: FaultSpec | None = None


def compute_vectors(task: VectorTask) -> tuple[int, np.ndarray]:
    """Similarity vectors for one chunk of pairs.

    Exactness: every entry of the similarity matrix depends only on its own
    pair's attribute strings, so computing row chunks in different
    processes and stacking them equals the one-shot computation bit for
    bit (the batch substrate's per-pair kernels are themselves
    bit-identical to the scalar reference — PR 1's contract).
    """
    maybe_fault(task.fault)
    from ..similarity.batch import batch_similarity_matrix

    return task.start, batch_similarity_matrix(
        task.table, list(task.pairs), task.config
    )


# --------------------------------------------------------------------------- #
# Independent-mode task: one shard's full resolution loop
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class IndependentShardTask:
    """One shard's end-to-end resolution job (picklable spec).

    Attributes:
        shard_id: position in the shard plan (drives the derived seed).
        table: the full record table (shards share records; pairs differ).
        pairs: the candidate pairs this shard owns.
        config: the pipeline configuration (selector, grouping, ...).
        worker_band: accuracy band for the shard's simulated crowd.
        seed: the shard's derived selector seed
            (:func:`derive_shard_seed` of the global seed and shard id).
        budget: optional per-shard question budget (the coordinator's
            global budget split, see
            :func:`repro.shard.executor.split_question_budget`).
    """

    shard_id: int
    table: Table
    pairs: tuple[Pair, ...]
    config: "PowerConfig"
    worker_band: str | tuple[float, float] = "90"
    seed: int = 0
    budget: int | None = None
    fault: FaultSpec | None = None


@dataclass(frozen=True)
class ShardOutcome:
    """Everything the merge needs from one independent shard run."""

    shard_id: int
    labels: dict[Pair, bool]
    asked_pairs: frozenset[Pair]
    questions: int
    iterations: int
    cost_cents: int
    assignment_time: float
    num_vertices: int

    @property
    def matches(self) -> set[Pair]:
        return {pair for pair, same in self.labels.items() if same}


def resolve_shard(task: IndependentShardTask) -> ShardOutcome:
    """Run the Power/Power+ loop on one shard's pairs (worker side).

    Builds the shard's similarity vectors, (grouped) dominance graph, and
    simulated crowd, then runs the configured selector with the shard's
    derived seed.  The crowd pool is seeded with the *global* config seed —
    worker votes depend only on ``(pool seed, worker, pair)`` — so a pair
    answered in this shard gets the same answer it would get in any other
    shard or in the serial run.
    """
    maybe_fault(task.fault)
    from ..crowd.platform import SimulatedCrowd
    from ..crowd.worker import WorkerPool
    from ..graph.grouped_graph import build_graph
    from ..selection import SELECTORS
    from ..similarity.batch import batch_similarity_matrix

    config = task.config
    pairs = list(task.pairs)
    table = task.table
    vectors = batch_similarity_matrix(
        table, pairs, _similarity_config(config, table)
    )
    graph = build_graph(
        pairs,
        vectors,
        epsilon=config.epsilon,
        grouping_algorithm=config.grouping_algorithm,
    )
    crowd = SimulatedCrowd(
        pair_truth(table, pairs),
        pool=WorkerPool(accuracy_range=task.worker_band, seed=config.seed),
        assignments=config.assignments,
    )
    session = crowd.session()
    selector = SELECTORS[config.selector](
        error_policy=config.error_policy(),
        seed=task.seed,
    )
    result = selector.run(graph, session, budget=task.budget)
    return ShardOutcome(
        shard_id=task.shard_id,
        labels=dict(result.labels),
        asked_pairs=session.asked_pairs,
        questions=result.questions,
        iterations=result.iterations,
        cost_cents=result.cost_cents,
        assignment_time=result.assignment_time,
        num_vertices=len(graph),
    )


def _similarity_config(config: "PowerConfig", table: Table) -> "SimilarityConfig":
    """The resolver's similarity configuration, rebuilt worker-side."""
    from ..similarity.vectors import SimilarityConfig

    similarity = config.similarity
    if isinstance(similarity, str):
        return SimilarityConfig.uniform(
            table.num_attributes,
            function=similarity,
            attribute_threshold=config.attribute_threshold,
        )
    return SimilarityConfig(
        functions=tuple(similarity),
        attribute_threshold=config.attribute_threshold,
    ).for_table(table)


__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "maybe_fault",
    "derive_shard_seed",
    "VectorTask",
    "compute_vectors",
    "IndependentShardTask",
    "ShardOutcome",
    "resolve_shard",
]
