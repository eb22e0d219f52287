"""Picklable per-shard task functions (the code that runs inside workers).

Every task here is a **pure function of its spec**: no hidden process
state, no shared RNG, no ordering dependence.  That single property is what
makes the executor's fault handling trivial — a crashed, hung, or flaky
task can be retried on another worker (or run inline in the coordinator)
and produce the *same bytes*.

Two families of tasks exist, matching the two execution modes of
:mod:`repro.shard`:

* **exact lockstep** tasks — data-parallel slices of the serial pipeline's
  own arithmetic.  :func:`compute_join_pairs` emits one probe range of the
  candidate similarity join, :func:`compute_vectors` vectorizes a chunk of
  candidate pairs, :func:`compute_adjacency` builds a row block of the
  dominance adjacency, and :func:`compute_vote_deltas` computes one vertex
  slice's inference-vote deltas for a batch of crowd answers.  Their merges
  (:mod:`repro.shard.merge`) are associative and order-free, so the merged
  result is bit-identical to the serial path regardless of scheduling.
* **independent** tasks — :func:`resolve_shard` runs the full
  Power/Power+ graph-build → selection → crowd loop on one shard's pair
  set, with a per-shard RNG seed derived from the global seed and the
  shard id (:func:`derive_shard_seed`), so shard answers are reproducible
  regardless of which process runs them or in which order.

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
# Exact-mode tasks: data-parallel slices of the serial arithmetic
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class JoinTask:
    """One probe range of the candidate-pair similarity join.

    Every candidate pair ``(a, b)`` with ``a < b`` is owned by its higher
    record id ``b``; this task emits exactly the pairs owned by records
    ``[lo, hi)`` (see :func:`repro.similarity.join.similar_pairs_range`).
    Tiling the record range therefore tiles the full join output — the
    concatenation over disjoint covering ranges is a permutation of
    ``similar_pairs(table, threshold)``, and sorting it restores the exact
    serial output.

    Attributes:
        table: the records (tokenization is recomputed per task — it is
            two orders of magnitude cheaper than the verification work the
            range parallelizes).
        threshold: the record-level Jaccard pruning bound ``tau``.
        lo / hi: the probe-record range this task owns.
        tokens: ``"word"`` or ``"qgram"`` token sets.
    """

    table: Table
    threshold: float
    lo: int
    hi: int
    tokens: str = "word"
    fault: FaultSpec | None = None


def compute_join_pairs(task: JoinTask) -> list[Pair]:
    """The candidate pairs owned by the task's probe-record range."""
    maybe_fault(task.fault)
    from ..similarity.join import similar_pairs_range

    return similar_pairs_range(
        task.table,
        task.threshold,
        task.lo,
        task.hi,
        tokens=task.tokens,
    )


@dataclass(frozen=True)
class VectorTask:
    """One chunk of the similarity-vector computation.

    Attributes:
        start: global row index of ``pairs[0]`` (for ordered reassembly).
        pairs: the candidate pairs of this chunk.
        table: the records (rows are independent, so chunking is exact).
        config: the per-attribute similarity configuration.
        use_batch: route through the vectorized batch substrate (default)
            or the scalar reference — both bit-identical per pair.
    """

    start: int
    pairs: tuple[Pair, ...]
    table: Table
    config: "SimilarityConfig"
    use_batch: bool = True
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
    from ..similarity.vectors import similarity_matrix

    vectorize = batch_similarity_matrix if task.use_batch else similarity_matrix
    return task.start, vectorize(task.table, list(task.pairs), task.config)


@dataclass(frozen=True)
class AdjacencyTask:
    """One row block of the blocked dominance-adjacency construction.

    Carries the *full* dominance operands (they are small — ``(n, m)``
    float rows) plus the ``[lo, hi)`` row range this task owns, so the
    kernel's comparisons are exactly the serial kernel's comparisons for
    those rows.
    """

    dominant: np.ndarray
    dominated: np.ndarray
    lo: int
    hi: int
    block_size: int = 256
    fault: FaultSpec | None = None


def compute_adjacency(task: AdjacencyTask) -> tuple[int, list[np.ndarray]]:
    """Children lists for dominance rows ``[lo, hi)`` (global column ids)."""
    maybe_fault(task.fault)
    from ..graph.construction import blocked_dominance_lists

    lists = blocked_dominance_lists(
        task.dominant,
        task.dominated,
        block_size=task.block_size,
        exclude_diagonal=True,
        row_range=(task.lo, task.hi),
    )
    return task.lo, lists


@dataclass(frozen=True)
class PropagationTask:
    """One vertex slice's inference-vote deltas for a batch of answers.

    For the slice ``[lo, hi)`` of the dominance DAG, computes how many
    GREEN votes each slice vertex receives from the batch's GREEN answers
    (it strictly dominates an answered vertex: ``dominant[u] >=
    dominated[v]`` with a strict component) and how many RED votes from the
    RED answers (it is strictly dominated: ``dominated[u] <=
    dominant[v]``) — the same operand form
    :meth:`repro.graph.dag.OrderedGraph._dominance_operands` feeds the
    blocked kernel, valid for pair and grouped graphs alike.

    Attributes:
        dominant_block / dominated_block: operand rows ``lo:hi``.
        lo: global index of the slice's first vertex.
        green_vertices / green_rows: GREEN-answered vertices and their
            *dominated* operand rows (the comparison targets).
        red_vertices / red_rows: RED-answered vertices and their
            *dominant* operand rows.
    """

    dominant_block: np.ndarray
    dominated_block: np.ndarray
    lo: int
    green_vertices: tuple[int, ...]
    green_rows: np.ndarray
    red_vertices: tuple[int, ...]
    red_rows: np.ndarray
    fault: FaultSpec | None = None


#: Answered vertices are processed in chunks of this many per comparison
#: broadcast, bounding the ``(slice, chunk, m)`` boolean temporary.
_VOTE_CHUNK = 256


def _vote_counts(
    block: np.ndarray,
    rows: np.ndarray,
    vertices: tuple[int, ...],
    lo: int,
    green: bool,
) -> np.ndarray:
    """Votes received by each block vertex from the answered *vertices*.

    ``green=True`` counts, per block vertex ``u``, the answered vertices it
    strictly dominates' ancestors relation (``block[u] >= row`` all, ``>``
    any); ``green=False`` the strictly-dominated relation (``block[u] <=
    row`` all, ``<`` any).  A vertex never votes for itself (the serial
    masks pin ``mask[vertex] = False``).
    """
    height = block.shape[0]
    counts = np.zeros(height, dtype=np.int32)
    if not len(vertices):
        return counts
    for start in range(0, len(vertices), _VOTE_CHUNK):
        chunk_rows = rows[start : start + _VOTE_CHUNK]
        cmp = block[:, None, :]
        if green:
            mask = (cmp >= chunk_rows[None, :, :]).all(axis=2) & (
                cmp > chunk_rows[None, :, :]
            ).any(axis=2)
        else:
            mask = (cmp <= chunk_rows[None, :, :]).all(axis=2) & (
                cmp < chunk_rows[None, :, :]
            ).any(axis=2)
        for offset, vertex in enumerate(vertices[start : start + _VOTE_CHUNK]):
            if lo <= vertex < lo + height:
                mask[vertex - lo, offset] = False  # self-vote never happens
        counts += mask.sum(axis=1, dtype=np.int32)
    return counts


def compute_vote_deltas(
    task: PropagationTask,
) -> tuple[int, np.ndarray, np.ndarray]:
    """``(lo, green_delta, red_delta)`` for the task's vertex slice.

    Exactness: the serial engine applies one answer at a time —
    ``_green_votes[ancestor_mask(v)] += 1`` per GREEN answer,
    ``_red_votes[descendant_mask(v)] += 1`` per RED — and vote addition is
    commutative and associative, so per-slice partial sums merged in any
    order equal the serial per-answer sums exactly (integer arithmetic,
    no rounding).
    """
    maybe_fault(task.fault)
    green = _vote_counts(
        task.dominant_block, task.green_rows, task.green_vertices, task.lo, True
    )
    red = _vote_counts(
        task.dominated_block, task.red_rows, task.red_vertices, task.lo, False
    )
    return task.lo, green, red


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
    from ..similarity.vectors import similarity_matrix

    config = task.config
    pairs = list(task.pairs)
    table = task.table
    similarity_config = _similarity_config(config, table)
    vectorize = (
        batch_similarity_matrix if config.use_batch_similarity else similarity_matrix
    )
    vectors = vectorize(table, pairs, similarity_config)
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
        incremental=config.use_incremental_selection,
        reachability_bytes=config.reachability_limit_bytes(),
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
    "JoinTask",
    "compute_join_pairs",
    "VectorTask",
    "compute_vectors",
    "AdjacencyTask",
    "compute_adjacency",
    "PropagationTask",
    "compute_vote_deltas",
    "IndependentShardTask",
    "ShardOutcome",
    "resolve_shard",
]
