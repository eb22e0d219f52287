"""Differential oracles: brute-force references for the production paths.

Every optimized component of the pipeline has a deliberately naive twin in
this module — small, loop-heavy, obviously-correct Python that recomputes
the same answer from first principles:

* :func:`naive_dominance_edges` — O(n^2 m) strict-dominance edges, written
  independently of :mod:`repro.graph.construction` (no shared comparator).
* :func:`naive_transitive_closure` — BFS closure, used to certify that the
  dominance relation is its own transitive closure.
* :func:`naive_join` / :func:`prefix_join` — the quadratic Jaccard scan and
  the prefix-filtered inverted-index join, the two references the
  production candidate join must reproduce pair for pair.
* :class:`NaivePairGraph` / :class:`NaiveGroupedGraph` — brute-force
  :class:`~repro.graph.dag.OrderedGraph` implementations.  Running the
  *same* selector against the naive and the production graph with identical
  crowds must produce identical runs, question for question — which
  exercises the blocked dominance kernel, the vectorized masks, and the
  grouped-bound arithmetic under every selector's real access pattern.
* :func:`reference_split_grouping` — Algorithm 2 one tree node at a time,
  the reference the level-synchronous production Split grouping (and the
  grouped graph built from it) must reproduce exactly.
* :func:`check_crowd_draws` — numpy's own per-key generators, the
  reference the batched crowd-draw kernel (and every crowd round it
  answers) must reproduce bit for bit.
* :class:`ReferenceColoring` — a dict/set replay of the coloring engine's
  pin-and-vote semantics (§3.2/§5.3), cross-checked against the production
  :class:`~repro.graph.coloring.ColoringState` after each run.
* :func:`check_round_update` — a finished run's rounds replayed through
  the round update and through the one-answer-at-a-time engine, which
  must agree after every round (:func:`check_round_replay` replays given
  rounds, such as :func:`repro.verify.vote_tie_instance`'s).
* :func:`decline_reachability` — a graph that declines its reachability
  index, which sends any selector run on it down the reference selection
  paths (mask-broadcast propagation, scratch path covers every round,
  longest-chain layering); :func:`check_linear_extension` runs the
  layering and index checks on both sides of that switch.
* :class:`GreedyReferenceSelector` — a deterministic greedy selector used
  as an end-to-end reference policy.
* :func:`monotone_truth` — ground truth that respects the partial order by
  construction, so a perfect crowd plus correct inference must reproduce it
  *exactly* (the end-to-end oracle).

All oracles raise :class:`~repro.exceptions.VerificationError` with a
pinpointed counterexample on disagreement.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict, deque
from collections.abc import Sequence

import numpy as np

from ..crowd.platform import PerfectCrowd, SimulatedCrowd
from ..crowd.worker import WorkerPool
from ..data.ground_truth import Pair
from ..data.table import Table
from ..exceptions import CrowdError, VerificationError
from ..graph.coloring import Color, ColoringState
from ..graph.dag import OrderedGraph, PairGraph
from ..graph.grouped_graph import GroupedGraph
from ..selection import SELECTORS
from ..selection.base import QuestionSelector, SelectionResult
from ..similarity.jaccard import jaccard
from ..similarity.vectors import SimilarityConfig, similarity_matrix

Edge = tuple[int, int]


# --------------------------------------------------------------------------- #
# Naive dominance relation
# --------------------------------------------------------------------------- #


def naive_dominance_edges(vectors: np.ndarray) -> set[Edge]:
    """Strict-dominance edges by definition: two nested Python loops.

    Independent of :mod:`repro.graph.construction` — no shared comparator,
    no numpy broadcasting — so a bug there cannot hide here.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    rows = [list(map(float, row)) for row in vectors]
    edges: set[Edge] = set()
    for u, row_u in enumerate(rows):
        for v, row_v in enumerate(rows):
            if u == v:
                continue
            if all(a >= b for a, b in zip(row_u, row_v)) and any(
                a > b for a, b in zip(row_u, row_v)
            ):
                edges.add((u, v))
    return edges


def naive_transitive_closure(edges: set[Edge], num_vertices: int) -> set[Edge]:
    """Reachability closure of *edges* via per-vertex BFS."""
    children: dict[int, list[int]] = {v: [] for v in range(num_vertices)}
    for u, v in edges:
        children[u].append(v)
    closure: set[Edge] = set()
    for source in range(num_vertices):
        seen = {source}
        queue = deque(children[source])
        while queue:
            vertex = queue.popleft()
            if vertex in seen:
                continue
            seen.add(vertex)
            closure.add((source, vertex))
            queue.extend(children[vertex])
    return closure


def _diff_edges(label_a: str, edges_a: set[Edge], label_b: str, edges_b: set[Edge]) -> None:
    if edges_a == edges_b:
        return
    missing = sorted(edges_a - edges_b)[:5]
    extra = sorted(edges_b - edges_a)[:5]
    raise VerificationError(
        f"{label_b} disagrees with {label_a}: "
        f"{len(edges_a - edges_b)} missing (e.g. {missing}), "
        f"{len(edges_b - edges_a)} extra (e.g. {extra})"
    )


def check_dominance_construction(vectors: np.ndarray) -> None:
    """All §4.1 construction algorithms must equal the naive edge set.

    Covers ``brute-force``, ``quicksort``, ``index`` (when m >= 2),
    ``vectorized``, ``blocked``, and the adjacency-list form of the blocked
    kernel (:func:`~repro.graph.construction.blocked_dominance_lists`).
    """
    from ..graph.construction import (
        CONSTRUCTION_ALGORITHMS,
        blocked_dominance_lists,
    )

    vectors = np.asarray(vectors, dtype=np.float64)
    reference = naive_dominance_edges(vectors)
    for name, algorithm in CONSTRUCTION_ALGORITHMS.items():
        if name == "index" and vectors.shape[1] < 2:
            continue
        _diff_edges("naive oracle", reference, f"construction[{name}]", algorithm(vectors))
    lists = blocked_dominance_lists(vectors, vectors, block_size=7)
    if len(lists) != vectors.shape[0]:
        raise VerificationError(
            f"blocked_dominance_lists returned {len(lists)} lists for "
            f"{vectors.shape[0]} vertices"
        )
    from_lists = {
        (u, int(v)) for u, children in enumerate(lists) for v in children
    }
    _diff_edges("naive oracle", reference, "blocked_dominance_lists", from_lists)


def check_transitive_closure(vectors: np.ndarray) -> None:
    """The dominance relation must be its own transitive closure."""
    edges = naive_dominance_edges(vectors)
    closure = naive_transitive_closure(edges, np.asarray(vectors).shape[0])
    _diff_edges("dominance edges", edges, "their transitive closure", closure)


# --------------------------------------------------------------------------- #
# Naive similarity oracles
# --------------------------------------------------------------------------- #


def check_batch_similarity(
    table: Table, pairs: Sequence[Pair], config: SimilarityConfig
) -> None:
    """The batch similarity matrix must be bit-identical to the scalar one."""
    from ..similarity.batch import batch_similarity_matrix

    reference = similarity_matrix(table, pairs, config)
    fast = batch_similarity_matrix(table, pairs, config)
    if reference.shape != fast.shape:
        raise VerificationError(
            f"batch similarity shape {fast.shape} != scalar {reference.shape}"
        )
    if len(pairs) and not np.array_equal(reference, fast):
        row, col = np.argwhere(reference != fast)[0]
        raise VerificationError(
            f"batch similarity differs from scalar at pair {pairs[row]} "
            f"attribute {col}: {fast[row, col]!r} != {reference[row, col]!r}"
        )


def naive_join(token_sets: Sequence[frozenset[str]], threshold: float) -> set[Pair]:
    """Every pair with ``jaccard >= threshold``, by the quadratic scan."""
    pairs: set[Pair] = set()
    for j, tokens_j in enumerate(token_sets):
        for i in range(j):
            if jaccard(token_sets[i], tokens_j) >= threshold:
                pairs.add((i, j))
    return pairs


def _min_overlap(size: int, threshold: float) -> int:
    """The least ``k`` with ``k / size >= threshold``, by the float division.

    ``ceil(threshold * size)`` can overshoot it: ``0.28 * 25`` rounds to
    ``7.000000000000001``, yet ``7 / 25 >= 0.28``.
    """
    overlap = 0
    while overlap / size < threshold:
        overlap += 1
    return overlap


def prefix_join(token_sets: Sequence[frozenset[str]], threshold: float) -> set[Pair]:
    """Prefix-filtered self-join for Jaccard.

    For Jaccard(a, b) >= t, the sets must share a token within the first
    ``|a| - k + 1`` tokens when both sets are ordered by a global token
    order (rarest first), where ``k`` is the least overlap with ``k / |a|
    >= t`` (``∪ >= |a|``, and float division is monotone).  We index those
    prefixes and verify only the colliding pairs.  Empty sets have no
    prefix and pair among themselves (``jaccard(∅, ∅) == 1``).
    """
    frequency: Counter[str] = Counter()
    for tokens in token_sets:
        frequency.update(tokens)
    # Rarest-first global order; ties broken lexically for determinism.
    order = {
        token: rank
        for rank, (token, _) in enumerate(
            sorted(frequency.items(), key=lambda item: (item[1], item[0]))
        )
    }
    index: dict[str, list[int]] = defaultdict(list)
    pairs: set[Pair] = set()
    empties: list[int] = []
    for record_id, my_set in enumerate(token_sets):
        size = len(my_set)
        if size == 0:
            pairs.update((other, record_id) for other in empties)
            empties.append(record_id)
            continue
        prefix_len = size - _min_overlap(size, threshold) + 1
        candidates: set[int] = set()
        for token in sorted(my_set, key=order.__getitem__)[:prefix_len]:
            candidates.update(index[token])
            index[token].append(record_id)
        for other in candidates:
            other_set = token_sets[other]
            # Length filter: ∩ <= min and ∪ >= max, so Jaccard >= t needs
            # min / max >= t under the same division.
            other_size = len(other_set)
            ratio = other_size / size if other_size < size else size / other_size
            if ratio < threshold:
                continue
            if jaccard(my_set, other_set) >= threshold:
                pairs.add((other, record_id))
    return pairs


def check_join_methods(table: Table, threshold: float) -> None:
    """The production candidate join must equal both join oracles.

    Checks, against :func:`naive_join`: :func:`prefix_join` (so the two
    oracles vouch for each other) and
    :func:`~repro.similarity.join.similar_pairs`.
    """
    from ..similarity.join import similar_pairs
    from ..similarity.tokenize import word_tokens

    token_sets = [word_tokens(table.record_text(r.record_id)) for r in table]
    reference = naive_join(token_sets, threshold)
    _diff_edges("naive join", reference, "prefix join", prefix_join(token_sets, threshold))
    _diff_edges(
        "naive join", reference, "production join", set(similar_pairs(table, threshold))
    )


def check_entity_quality(table: Table, matches: Sequence[Pair]) -> None:
    """The entity-id scorer must equal the gold-set scorer, field for field.

    Scores *matches* as given, then with every pair repeated in the other
    orientation, against ``pairwise_quality(..., true_match_pairs(table))``.
    """
    from ..core.metrics import entity_quality, pairwise_quality
    from ..data.ground_truth import true_match_pairs

    gold = true_match_pairs(table)
    both = [*matches, *((j, i) for i, j in matches)]
    for label, pairs in (("as given", matches), ("in both orientations", both)):
        expected = pairwise_quality(pairs, gold)
        produced = entity_quality(pairs, table)
        if produced != expected:
            raise VerificationError(
                f"entity_quality differs from pairwise_quality on {len(pairs)} "
                f"pairs {label}: {produced} != {expected}"
            )


# --------------------------------------------------------------------------- #
# Naive crowd aggregation oracle
# --------------------------------------------------------------------------- #


def check_crowd_aggregation(crowd: SimulatedCrowd, pairs: Sequence[Pair]) -> None:
    """The platform's cached answers must equal a naive recomputation.

    For every pair the oracle re-derives the worker assignment and the
    individual votes with the per-stream reference (``WorkerPool.assign``,
    ``Worker.answer``), and the (weighted) majority aggregate with plain
    Python loops, then compares answer, confidence, and the vote tuple
    against ``crowd.answer`` — twice, so a poisoned or bypassed answer
    cache is caught as well.  The pairs are first answered as one round
    through ``answer_batch``, so a round large enough for the batched
    draw kernel is held to the same reference.  For crowds that draw
    panels from their pool (not a policy's :class:`AssigningCrowd`).
    """
    from ..data.ground_truth import canonical_pair

    round_answers = crowd.answer_batch(pairs)
    for raw_pair in pairs:
        pair = canonical_pair(*raw_pair)
        truth = crowd.truth[pair]
        workers = crowd.pool.assign(pair, crowd.assignments)
        difficulty = (
            1.0 if crowd.difficulty is None else crowd.difficulty.get(pair, 1.0)
        )
        votes = [worker.answer(pair, truth, difficulty) for worker in workers]
        if crowd.aggregation == "weighted":
            weights = [worker.accuracy for worker in workers]
            yes_weight = sum(
                weight for vote, weight in zip(votes, weights) if vote
            )
            total = sum(weights)
            expected_answer = yes_weight > total - yes_weight
            expected_confidence = max(yes_weight, total - yes_weight) / total
        else:
            yes = sum(votes)
            expected_answer = yes > len(votes) - yes
            expected_confidence = max(yes, len(votes) - yes) / len(votes)
        for attempt in ("round", "cached re-ask"):
            outcome = round_answers[pair] if attempt == "round" else crowd.answer(pair)
            if (
                outcome.answer != expected_answer
                or outcome.confidence != expected_confidence
                or tuple(outcome.votes) != tuple(votes)
            ):
                raise VerificationError(
                    f"crowd aggregation for pair {pair} ({attempt}) disagrees "
                    f"with the naive recomputation: platform "
                    f"({outcome.answer}, {outcome.confidence:.4f}, {outcome.votes}) "
                    f"vs naive ({expected_answer}, {expected_confidence:.4f}, "
                    f"{tuple(votes)})"
                )


# --------------------------------------------------------------------------- #
# Batched crowd draws vs numpy's per-key generators
# --------------------------------------------------------------------------- #

#: Draw bounds for the kernel's Lemire draw: tiny ranges, the 50-worker
#: pool's, and ranges near 2**31 where about half the draws reject.
CROWD_DRAW_BOUNDS = (0, 1, 2, 5, 49, 2**31 - 1, 2**31, 2**31 + 1, 3 * 2**30, 2**32 - 2)

#: Seeds for the crowd-draw check: 2**32 + 5 hashes as two entropy words.
CROWD_DRAW_SEEDS = (0, 7, 2**32 + 5)


def check_crowd_draws(seed: int = 0) -> None:
    """The batched crowd-draw kernel must equal numpy's per-key generators.

    For keys built from the seeds 0, 7 and 2**32 + 5, pair ids 0 and
    beyond 2**32, and a *seed*-derived spread, the kernel's ``random()``,
    bounded draws (``integers(0, r, endpoint=True, dtype=np.uint32)``,
    several per key so buffered halves and rejections interleave) and
    ``choice(size, k, replace=False)`` for pools of 1 to 50 workers must
    equal ``np.random.default_rng(key)``'s.  Then, on both sides of
    ``BATCH_DRAW_MIN_PAIRS`` and of numpy's 10,000-worker branch
    boundary, ``assign_many`` must equal ``assign``, and
    ``SimulatedCrowd.answer_batch`` must pass :func:`check_crowd_aggregation`
    (the per-pair reference) for every worker behaviour, both aggregations
    and difficulties 0, 2.5 and NaN.
    """
    from ..crowd import worker as crowd_worker

    rng = np.random.default_rng(seed)
    spread = [int(value) for value in rng.integers(0, 2**40, size=6)]
    ids = (0, 0xA551, 3, 2**33 + 1)
    records = [(0, 1), (1, 2**32 + 3), (2**32, 2**40 + 9)]
    records += [(spread[k], spread[k] + spread[k + 1] + 1) for k in range(0, 6, 2)]
    keys = [
        (base, ident, a, b)
        for base in CROWD_DRAW_SEEDS + (seed,)
        for ident in ids
        for a, b in records
    ]
    table = np.array(keys, dtype=np.uint64)

    def mismatch(what: str, key, kernel, numpy_value) -> VerificationError:
        return VerificationError(
            f"crowd-draw {what} for key {key}: kernel {kernel} vs numpy "
            f"{numpy_value}"
        )

    uniform = crowd_worker._Streams(table).random()
    for key, value in zip(keys, uniform.tolist()):
        expected = np.random.default_rng(key).random()
        if value != expected:
            raise mismatch("random()", key, value, expected)
    for bound in CROWD_DRAW_BOUNDS:
        streams = crowd_worker._Streams(table)
        drawn = np.stack([streams.bounded(bound) for _ in range(4)], axis=1)
        for key, row in zip(keys, drawn.tolist()):
            expected = np.random.default_rng(key).integers(
                0, bound, size=4, endpoint=True, dtype=np.uint32
            )
            if row != expected.tolist():
                raise mismatch(f"bounded({bound})", key, row, expected.tolist())
    few = table[:: max(1, len(keys) // 12)]
    choices = [(size, min(5, size)) for size in range(1, 51)]
    choices += [(2, 1), (7, 1), (7, 7), (50, 1), (50, 50)]
    for size, count in choices:
        chosen = crowd_worker._Streams(few).choice(size, count)
        for key, row in zip(few.tolist(), chosen.tolist()):
            expected = np.random.default_rng(key).choice(size, count, replace=False)
            if row != expected.tolist():
                raise mismatch(f"choice({size}, {count})", key, row, expected)

    # assign_many vs assign around the size rule and numpy's branch
    # boundary (a 10,001-worker pool asked for 201 takes the tail shuffle).
    pairs = [tuple(record) for record in records] * 3
    pairs = [(a + k, b + k) for k, (a, b) in enumerate(pairs)]
    batch = crowd_worker.BATCH_DRAW_MIN_PAIRS
    for size, counts in ((10_000, (5, 201)), (10_001, (200, 201))):
        pool = WorkerPool(size=size, seed=seed)
        for count in counts:
            if pool.assign_many(pairs, count) != [pool.assign(p, count) for p in pairs]:
                raise VerificationError(
                    f"crowd-draw assign_many({size} workers, {count}) disagrees "
                    "with per-pair assign"
                )

    # Whole rounds through the platform, below and above the size rule:
    # each pool mixes honest workers with one spammer type.
    truth = {pair: bool(k % 3) for k, pair in enumerate(pairs)}
    difficulty = {pairs[0]: 0.0, pairs[1]: 2.5, pairs[2]: math.nan}
    for base in CROWD_DRAW_SEEDS:
        for behavior, size in (("random", 50), ("always-yes", 7), ("always-no", 1)):
            pool = WorkerPool(
                size=size,
                accuracy_range="70",
                seed=base,
                spammer_fraction=0.3,
                spammer_behavior=behavior,
            )
            for aggregation in ("weighted", "majority"):
                for cut in (batch - 1, len(pairs)):
                    crowd = SimulatedCrowd(
                        truth,
                        pool=pool,
                        assignments=min(5, size),
                        aggregation=aggregation,
                        difficulty=difficulty,
                    )
                    check_crowd_aggregation(crowd, pairs[:cut])


# --------------------------------------------------------------------------- #
# Naive graphs: brute-force OrderedGraph implementations
# --------------------------------------------------------------------------- #


class NaivePairGraph(PairGraph):
    """Brute-force twin of :class:`~repro.graph.dag.PairGraph`.

    Subclasses :class:`PairGraph` only to satisfy the ``isinstance`` checks
    scattered through the selectors (topological keys, error-tolerant base
    lookup); every dominance primitive is overridden with pure-Python
    comparisons, and ``_dominance_operands`` returns ``None`` so adjacency is
    built through the per-vertex reference loop instead of the blocked
    kernel.
    """

    def __init__(self, pairs: Sequence[Pair], vectors: np.ndarray) -> None:
        super().__init__(pairs, vectors)
        self._rows = [list(map(float, row)) for row in self.vectors]

    def _dominance_operands(self) -> None:  # type: ignore[override]
        return None

    @staticmethod
    def _dominates(row_u: list[float], row_v: list[float]) -> bool:
        return all(a >= b for a, b in zip(row_u, row_v)) and any(
            a > b for a, b in zip(row_u, row_v)
        )

    def descendant_mask(self, vertex: int) -> np.ndarray:
        self._check_vertex(vertex)
        row = self._rows[vertex]
        mask = np.zeros(len(self), dtype=bool)
        for other, other_row in enumerate(self._rows):
            if other != vertex and self._dominates(row, other_row):
                mask[other] = True
        return mask

    def ancestor_mask(self, vertex: int) -> np.ndarray:
        self._check_vertex(vertex)
        row = self._rows[vertex]
        mask = np.zeros(len(self), dtype=bool)
        for other, other_row in enumerate(self._rows):
            if other != vertex and self._dominates(other_row, row):
                mask[other] = True
        return mask


class NaiveGroupedGraph(OrderedGraph):
    """Brute-force twin of :class:`~repro.graph.grouped_graph.GroupedGraph`.

    Built from the same base graph and grouping, but group bounds and the
    Eq. 5-6 dominance test are recomputed with Python loops.
    """

    def __init__(self, base: NaivePairGraph | PairGraph, grouping: Sequence[Sequence[int]]) -> None:
        super().__init__(num_vertices=len(grouping))
        self.base = base
        self.grouping = [list(group) for group in grouping]
        vectors = np.asarray(base.vectors, dtype=np.float64)
        self._lower = [
            [min(float(vectors[member][k]) for member in group) for k in range(vectors.shape[1])]
            for group in self.grouping
        ]
        self._upper = [
            [max(float(vectors[member][k]) for member in group) for k in range(vectors.shape[1])]
            for group in self.grouping
        ]

    @property
    def num_attributes(self) -> int:
        return len(self._lower[0]) if self._lower else 0

    @property
    def lower_bounds(self) -> np.ndarray:
        """Per-group lower-bound vectors (matches :class:`GroupedGraph`)."""
        return np.asarray(self._lower, dtype=np.float64)

    @property
    def upper_bounds(self) -> np.ndarray:
        """Per-group upper-bound vectors (matches :class:`GroupedGraph`)."""
        return np.asarray(self._upper, dtype=np.float64)

    def _dominates(self, u: int, v: int) -> bool:
        lower_u, upper_v = self._lower[u], self._upper[v]
        return all(a >= b for a, b in zip(lower_u, upper_v)) and any(
            a > b for a, b in zip(lower_u, upper_v)
        )

    def descendant_mask(self, vertex: int) -> np.ndarray:
        self._check_vertex(vertex)
        mask = np.zeros(len(self), dtype=bool)
        for other in range(len(self)):
            if other != vertex and self._dominates(vertex, other):
                mask[other] = True
        return mask

    def ancestor_mask(self, vertex: int) -> np.ndarray:
        self._check_vertex(vertex)
        mask = np.zeros(len(self), dtype=bool)
        for other in range(len(self)):
            if other != vertex and self._dominates(other, vertex):
                mask[other] = True
        return mask

    def member_pairs(self, vertex: int) -> tuple[Pair, ...]:
        self._check_vertex(vertex)
        return tuple(self.base.pairs[member] for member in self.grouping[vertex])

    def member_vertices(self, vertices) -> np.ndarray:
        members: list[int] = []
        for vertex in vertices:
            self._check_vertex(int(vertex))
            members.extend(self.grouping[int(vertex)])
        return np.array(members, dtype=np.int64)

    def representative_pair(self, vertex: int, rng: np.random.Generator) -> Pair:
        self._check_vertex(vertex)
        group = self.grouping[vertex]
        return self.base.pairs[group[int(rng.integers(0, len(group)))]]


# --------------------------------------------------------------------------- #
# Reference Split grouping: one tree node at a time
# --------------------------------------------------------------------------- #


def reference_split_grouping(vectors: np.ndarray, epsilon: float) -> list[list[int]]:
    """Algorithm 2 with a per-node queue: the reference Split grouping.

    Pops one tree node at a time, takes its bounds with ``min``/``max``,
    and halves every attribute whose span exceeds *epsilon* at the
    midpoint (strict ``>`` puts a member in the upper half).  Production
    :func:`~repro.graph.grouping.split_grouping` grows the same tree a
    level at a time and must return these groups exactly.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    n = vectors.shape[0]
    if n == 0:
        return []
    if epsilon == 0:
        # Degenerate but well-defined: group identical vectors together.
        buckets: dict[tuple[float, ...], list[int]] = {}
        for vertex in range(n):
            buckets.setdefault(tuple(vectors[vertex]), []).append(vertex)
        return sorted(buckets.values())
    groups: list[list[int]] = []
    queue: deque[np.ndarray] = deque([np.arange(n)])
    while queue:
        members = queue.popleft()
        block = vectors[members]
        lower = block.min(axis=0)
        upper = block.max(axis=0)
        wide = np.flatnonzero(upper - lower > epsilon)
        if wide.size == 0:
            groups.append([int(v) for v in members])
            continue
        # Bit k of a member's cell key says whether it falls in the upper
        # half of the k-th wide attribute.
        midpoints = (lower[wide] + upper[wide]) / 2.0
        keys = (block[:, wide] > midpoints).astype(np.int64)
        cell_ids = keys @ (1 << np.arange(wide.size, dtype=np.int64))
        for cell in np.unique(cell_ids):
            queue.append(members[cell_ids == cell])
    return sorted(groups)


def check_split_grouping(vectors: np.ndarray, epsilon: float) -> None:
    """Production Split grouping and grouped graph must equal the references.

    :func:`~repro.graph.grouping.split_grouping` must return exactly
    :func:`reference_split_grouping`'s groups, and so must the grouped
    graph :func:`~repro.graph.grouped_graph.build_graph` builds (it hands
    :func:`~repro.graph.grouping.split_partition`'s flat partition to the
    graph, not these lists).  That graph's bounds, ``member_vertices`` over
    all its vertices and ``group_of_pair_vertex`` must equal
    :class:`NaiveGroupedGraph`'s bounds and the concatenated reference
    groups.
    """
    from ..graph.grouped_graph import build_graph
    from ..graph.grouping import split_grouping

    vectors = np.asarray(vectors, dtype=np.float64)
    n, m = vectors.shape
    label = f"split-grouping[n={n}, epsilon={epsilon}]"
    expected = reference_split_grouping(vectors, epsilon)
    produced = split_grouping(vectors, epsilon)
    if produced != expected:
        step = next(
            (i for i, (a, b) in enumerate(zip(produced, expected)) if a != b),
            min(len(produced), len(expected)),
        )
        raise VerificationError(
            f"{label}: production gives {len(produced)} groups, the reference "
            f"{len(expected)}; first difference at group {step}: "
            f"{produced[step : step + 1]} vs {expected[step : step + 1]}"
        )
    pairs = [(2 * k, 2 * k + 1) for k in range(n)]
    grouped = build_graph(pairs, vectors, epsilon)
    naive = NaiveGroupedGraph(NaivePairGraph(pairs, vectors), expected)
    concatenated = [member for group in expected for member in group]
    for name, graph in (("build_graph", grouped), ("NaiveGroupedGraph", naive)):
        members = graph.member_vertices(np.arange(len(graph))).tolist()
        if len(graph) != len(expected) or members != concatenated:
            raise VerificationError(
                f"{label}: {name} lists other members than the reference groups"
            )
    for side in ("lower_bounds", "upper_bounds"):
        reference = getattr(naive, side).reshape(len(naive), m)
        if not np.array_equal(getattr(grouped, side), reference):
            raise VerificationError(
                f"{label}: GroupedGraph {side} differ from the naive member min/max"
            )
    for group_id, group in enumerate(expected):
        for member in group:
            if grouped.group_of_pair_vertex(member) != group_id:
                raise VerificationError(
                    f"{label}: group_of_pair_vertex({member}) is "
                    f"{grouped.group_of_pair_vertex(member)}, not {group_id}"
                )


# --------------------------------------------------------------------------- #
# Reference coloring: dict/set replay of the pin-and-vote engine
# --------------------------------------------------------------------------- #


class ReferenceColoring:
    """Pure-Python replay of :class:`~repro.graph.coloring.ColoringState`.

    Pinned answers never change; unpinned vertices take the majority of the
    GREEN/RED votes they received, ties RED; BLUE vertices are pinned and
    inert — the exact §3.2/§5.3 semantics, recomputed over a naive edge
    dictionary.
    """

    def __init__(self, edges: set[Edge], num_vertices: int) -> None:
        self.num_vertices = num_vertices
        self.parents: dict[int, set[int]] = {v: set() for v in range(num_vertices)}
        self.children: dict[int, set[int]] = {v: set() for v in range(num_vertices)}
        for u, v in edges:
            self.children[u].add(v)
            self.parents[v].add(u)
        self.pinned: dict[int, Color] = {}
        self.green_votes = [0] * num_vertices
        self.red_votes = [0] * num_vertices

    def apply(self, vertex: int, color: Color) -> None:
        self.pinned[vertex] = color
        if color == Color.GREEN:
            for ancestor in self.parents[vertex]:
                self.green_votes[ancestor] += 1
        elif color == Color.RED:
            for descendant in self.children[vertex]:
                self.red_votes[descendant] += 1
        # BLUE pins without voting.

    def color_of(self, vertex: int) -> Color:
        pinned = self.pinned.get(vertex)
        if pinned is not None:
            return pinned
        greens, reds = self.green_votes[vertex], self.red_votes[vertex]
        if greens == 0 and reds == 0:
            return Color.UNCOLORED
        return Color.GREEN if greens > reds else Color.RED

    def colors(self) -> list[Color]:
        return [self.color_of(vertex) for vertex in range(self.num_vertices)]


def _graph_edges(graph: OrderedGraph) -> set[Edge]:
    """The graph's dominance relation recomputed naively from its own data."""
    if isinstance(graph, (PairGraph, NaivePairGraph)):
        return naive_dominance_edges(graph.vectors)
    if isinstance(graph, GroupedGraph):
        edges: set[Edge] = set()
        lower, upper = graph.lower_bounds, graph.upper_bounds
        for u in range(len(graph)):
            for v in range(len(graph)):
                if u == v:
                    continue
                if all(
                    float(lower[u][k]) >= float(upper[v][k])
                    for k in range(lower.shape[1])
                ) and any(
                    float(lower[u][k]) > float(upper[v][k])
                    for k in range(lower.shape[1])
                ):
                    edges.add((u, v))
        return edges
    if isinstance(graph, NaiveGroupedGraph):
        return {
            (u, v)
            for u in range(len(graph))
            for v in range(len(graph))
            if u != v and graph._dominates(u, v)
        }
    # Fallback: trust the masks (still exercises the mask/adjacency pairing).
    return {
        (u, int(v))
        for u in range(len(graph))
        for v in np.flatnonzero(graph.descendant_mask(u))
    }


def check_coloring_replay(graph: OrderedGraph, state: ColoringState) -> None:
    """Replay a finished run's pinned answers through :class:`ReferenceColoring`.

    The production state's final colors must match the replay vertex for
    vertex; any divergence means the vectorized vote propagation or the
    pinning rules drifted from the paper's semantics.
    """
    replay = ReferenceColoring(_graph_edges(graph), len(graph))
    for vertex in state.asked_order:
        replay.apply(vertex, Color(int(state.colors[vertex])))
    # force_color pins (histogram step) are pinned outside asked_order.
    for vertex in range(len(graph)):
        if state._pinned[vertex] and vertex not in replay.pinned:
            replay.pinned[vertex] = Color(int(state.colors[vertex]))
    expected = replay.colors()
    for vertex in range(len(graph)):
        actual = Color(int(state.colors[vertex]))
        if actual != expected[vertex]:
            raise VerificationError(
                f"coloring replay disagrees at vertex {vertex}: production "
                f"{actual.name}, reference {expected[vertex].name} "
                f"(green votes {replay.green_votes[vertex]}, "
                f"red votes {replay.red_votes[vertex]})"
            )


def check_round_update(
    selector_name: str,
    pairs: Sequence[Pair],
    vectors: np.ndarray,
    seed: int,
    band: str = "80",
    budget: int | None = None,
) -> None:
    """The round update must equal :class:`ReferenceColoring`, answer by
    answer.

    Runs the selector in Power+ mode against a noisy crowd (so some answers
    come back BLUE), optionally under a question *budget* (truncated
    rounds), then replays its rounds, cut by the session's
    ``batch_sizes``, from the final coloring's pinned answers through
    :func:`check_round_replay`; the replay must end at the run's own
    state.  The selection loop applies rounds only through
    ``apply_round``, so this is the one check on the per-answer semantics.
    """
    from ..selection.error_tolerant import ErrorPolicy

    vectors = np.asarray(vectors, dtype=np.float64)
    truth = _pair_truth_from_vertices(pairs, monotone_truth(vectors))
    if selector_name == "greedy-reference":
        selector: QuestionSelector = GreedyReferenceSelector(
            seed=seed, error_policy=ErrorPolicy()
        )
    else:
        selector = SELECTORS[selector_name](seed=seed, error_policy=ErrorPolicy())
    crowd = SimulatedCrowd(
        truth, pool=WorkerPool(accuracy_range=band, seed=seed), assignments=5
    )
    session = crowd.session()
    final = selector.run(PairGraph(pairs, vectors), session, budget=budget).state
    rounds: list[list[tuple[int, Color]]] = []
    start = 0
    for size in session.batch_sizes:
        vertices = final.asked_order[start : start + size]
        rounds.append([(v, Color(int(final.colors[v]))) for v in vertices])
        start += size
    label = f"round-update[{selector_name}] seed={seed} budget={budget}"
    replayed = check_round_replay(pairs, vectors, rounds, label)
    if replayed.asked_order != final.asked_order or not np.array_equal(
        replayed.colors, final.colors
    ):
        raise VerificationError(f"{label}: the replay does not end at the run's state")


def check_round_replay(
    pairs: Sequence[Pair],
    vectors: np.ndarray,
    rounds: Sequence[Sequence[tuple[int, Color]]],
    label: str = "round-replay",
) -> ColoringState:
    """Apply *rounds* of ``(vertex, color)`` answers round by round.

    After every round, ``ColoringState.apply_round`` on a graph with a
    reachability index and on one without must leave the same colors,
    GREEN/RED vote counts and ``asked_order`` as
    :class:`ReferenceColoring` applying the same answers one at a time.
    Returns the indexed side's final state.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    answer_of = {Color.GREEN: True, Color.RED: False, Color.BLUE: None}
    indexed_graph = PairGraph(pairs, vectors)
    indexed_graph.build_reachability()
    sides = {
        "indexed": ColoringState(indexed_graph),
        "masks": ColoringState(PairGraph(pairs, vectors)),
    }
    reference = ReferenceColoring(naive_dominance_edges(vectors), len(pairs))
    asked: list[int] = []
    for round_index, answers in enumerate(rounds):
        vertices = [vertex for vertex, _ in answers]
        for vertex, color in answers:
            reference.apply(vertex, color)
        asked.extend(vertices)
        expected = {
            "colors": np.array(reference.colors(), dtype=np.int8),
            "_green_votes": np.array(reference.green_votes),
            "_red_votes": np.array(reference.red_votes),
        }
        for side, state in sides.items():
            state.apply_round(vertices, [answer_of[color] for _, color in answers])
            for what, want in expected.items():
                got = getattr(state, what)
                if not np.array_equal(got, want):
                    vertex = int(np.flatnonzero(got != want)[0])
                    raise VerificationError(
                        f"{label}: round {round_index} ({side}) leaves {what} "
                        f"at vertex {vertex} = {got[vertex]}, per-answer "
                        f"reference {want[vertex]}"
                    )
            if state.asked_order != asked:
                raise VerificationError(
                    f"{label}: round {round_index} ({side}) asked_order differs "
                    "from the per-answer reference"
                )
    return sides["indexed"]


# --------------------------------------------------------------------------- #
# Reference selector + monotone end-to-end oracle
# --------------------------------------------------------------------------- #


class GreedyReferenceSelector(QuestionSelector):
    """Deterministic greedy reference policy.

    Asks the uncolored vertex with the most uncolored comparable partners
    (ancestors + descendants), lowest id on ties — an obviously-correct
    "maximize immediate inference" strategy used as an end-to-end reference
    run for the coloring engine and the crowd session plumbing.
    """

    name = "greedy-reference"

    def select(
        self, graph: OrderedGraph, state: ColoringState, rng: np.random.Generator
    ) -> list[int]:
        uncolored = state.uncolored_mask()
        best_vertex, best_score = -1, -1
        for vertex in np.flatnonzero(uncolored):
            vertex = int(vertex)
            score = int(
                np.count_nonzero(graph.ancestor_mask(vertex) & uncolored)
                + np.count_nonzero(graph.descendant_mask(vertex) & uncolored)
            )
            if score > best_score:
                best_vertex, best_score = vertex, score
        return [best_vertex]


def monotone_truth(vectors: np.ndarray, cutoff: float | None = None) -> dict[int, bool]:
    """Per-vertex truth that respects the partial order by construction.

    A vertex matches iff its mean attribute similarity reaches *cutoff*
    (default: the median).  Since ``u > v`` implies ``mean(u) >= mean(v)``,
    this truth is monotone along dominance edges, so a perfect crowd plus a
    correct inference engine must reproduce it *exactly* whatever the
    selector asks.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    means = vectors.mean(axis=1) if vectors.size else np.zeros(vectors.shape[0])
    if cutoff is None:
        cutoff = float(np.median(means)) if means.size else 0.5
    return {vertex: bool(means[vertex] >= cutoff) for vertex in range(vectors.shape[0])}


def decline_reachability(graph: OrderedGraph) -> OrderedGraph:
    """Make a fresh *graph* decline its reachability index; returns it.

    The graph ends up in the state of a naive twin, which exposes no
    dominance operands: :meth:`~repro.graph.dag.OrderedGraph.build_reachability`
    returns ``None``, so a selector run on it takes the reference paths —
    mask-broadcast color propagation and, for the path-cover selectors,
    ``restricted_adjacency`` + ``minimum_path_cover`` from scratch every
    round.  The differential checks and the selection benchmark reach the
    references this way; production code has no switch for them.
    """
    if graph.reachability is not None:
        raise ValueError("the graph already holds a reachability index")
    graph.build_reachability = lambda: None
    return graph


def check_linear_extension(pairs: Sequence[Pair], vectors: np.ndarray) -> None:
    """The index and both layering paths, on a pair and a grouped graph.

    Each graph gets :func:`~repro.verify.invariants.check_reachability_index`
    and :func:`~repro.verify.invariants.check_topo_layers` with its index,
    then the layering check again on a fresh twin that declines the index
    (the longest-chain DP over the adjacency lists).  Both paths order the
    vertices by :func:`~repro.graph.construction.linear_extension`, so an
    instance whose float row sums tie under dominance
    (:func:`~repro.verify.battery.float_sum_tie_instance`) tells the exact
    order from a sum order; signed zeros and duplicate rows
    (:func:`~repro.verify.battery.signed_zero_instance`) test the joint
    row ranks that the index build and the dominance tiles both use.
    """
    from .invariants import check_reachability_index, check_topo_layers

    def graphs() -> list[OrderedGraph]:
        singletons = [[vertex] for vertex in range(len(pairs))]
        return [
            PairGraph(pairs, vectors),
            GroupedGraph(PairGraph(pairs, vectors), singletons),
        ]

    for graph in graphs():
        check_reachability_index(graph)
        check_topo_layers(graph)
    for graph in graphs():
        check_topo_layers(decline_reachability(graph))


def _run_selector(
    selector_name: str,
    graph: OrderedGraph,
    truth: dict[Pair, bool],
    seed: int,
    band: str | None = None,
) -> SelectionResult:
    if selector_name == "greedy-reference":
        selector = GreedyReferenceSelector(seed=seed)
    else:
        selector = SELECTORS[selector_name](seed=seed)
    if band is None:
        crowd: SimulatedCrowd = PerfectCrowd(truth)
    else:
        crowd = SimulatedCrowd(
            truth, pool=WorkerPool(accuracy_range=band, seed=seed), assignments=5
        )
    return selector.run(graph, crowd.session())


def _pair_truth_from_vertices(
    pairs: Sequence[Pair], vertex_truth: dict[int, bool]
) -> dict[Pair, bool]:
    return {pair: vertex_truth[vertex] for vertex, pair in enumerate(pairs)}


def check_selector_differential(
    selector_name: str,
    pairs: Sequence[Pair],
    vectors: np.ndarray,
    seed: int,
    epsilon: float | None = None,
    band: str | None = None,
) -> None:
    """One selector, two graphs: production vs brute-force must agree exactly.

    The same selector (same seed) runs once on the production graph
    (:class:`PairGraph`, optionally grouped) and once on its naive twin,
    each against an identical fresh crowd.  Labels, question counts,
    iteration counts, and final coloring must all be equal — any divergence
    means a production graph primitive (blocked kernel, vectorized mask,
    grouped bound) lied to the selector at some step.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    truth = _pair_truth_from_vertices(pairs, monotone_truth(vectors))
    production_base = PairGraph(pairs, vectors)
    naive_base = NaivePairGraph(pairs, vectors)
    production: OrderedGraph = production_base
    naive: OrderedGraph = naive_base
    if epsilon is not None:
        from ..graph.grouping import split_grouping

        grouping = split_grouping(vectors, epsilon)
        production = GroupedGraph(production_base, grouping)
        naive = NaiveGroupedGraph(naive_base, grouping)
    fast = _run_selector(selector_name, production, truth, seed, band=band)
    slow = _run_selector(selector_name, naive, truth, seed, band=band)
    label = f"selector[{selector_name}] seed={seed} epsilon={epsilon}"
    if fast.labels != slow.labels:
        diff = [
            pair
            for pair in set(fast.labels) | set(slow.labels)
            if fast.labels.get(pair) != slow.labels.get(pair)
        ][:5]
        raise VerificationError(
            f"{label}: production and naive graphs disagree on labels "
            f"(e.g. {diff})"
        )
    if (fast.questions, fast.iterations) != (slow.questions, slow.iterations):
        raise VerificationError(
            f"{label}: question/iteration counts diverge: production "
            f"({fast.questions}, {fast.iterations}) vs naive "
            f"({slow.questions}, {slow.iterations})"
        )
    if fast.state is not None and slow.state is not None and not np.array_equal(
        fast.state.colors, slow.state.colors
    ):
        vertex = int(np.flatnonzero(fast.state.colors != slow.state.colors)[0])
        raise VerificationError(
            f"{label}: final colors diverge at vertex {vertex}"
        )
    if fast.state is not None:
        check_coloring_replay(production, fast.state)


def check_selection_incremental(
    selector_name: str,
    pairs: Sequence[Pair],
    vectors: np.ndarray,
    seed: int,
    epsilon: float | None = None,
    band: str | None = None,
) -> None:
    """Incremental selection must be byte-identical to the scratch reference.

    The same selector (same seed, same crowd construction) runs once with
    the incremental engine (reachability index + warm-started path covers)
    and once on a graph that declines its index
    (:func:`decline_reachability`), which forces the per-round scratch
    paths; each side gets a *fresh* graph so no index leaks across.
    Questions asked — vertex for vertex, in order — labels, counts, and the
    final coloring must all be equal; any divergence means the warm-started
    matching or the packed propagation masks drifted from the reference.
    Each side's telemetry must name the engine it ran, or the comparison
    would be vacuous.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    truth = _pair_truth_from_vertices(pairs, monotone_truth(vectors))

    def build() -> OrderedGraph:
        base = PairGraph(pairs, vectors)
        if epsilon is None:
            return base
        from ..graph.grouping import split_grouping

        return GroupedGraph(base, split_grouping(vectors, epsilon))

    fast = _run_selector(selector_name, build(), truth, seed, band=band)
    slow = _run_selector(
        selector_name, decline_reachability(build()), truth, seed, band=band
    )
    label = f"selection-incremental[{selector_name}] seed={seed} epsilon={epsilon}"
    engines = (
        fast.extras["selection"]["incremental"],
        slow.extras["selection"]["incremental"],
    )
    if engines != (True, False):
        raise VerificationError(
            f"{label}: expected the incremental side on the index and the "
            f"reference side off it, got incremental={engines}"
        )
    if fast.state is not None and slow.state is not None:
        if fast.state.asked_order != slow.state.asked_order:
            length = min(len(fast.state.asked_order), len(slow.state.asked_order))
            step = next(
                (
                    i
                    for i in range(length)
                    if fast.state.asked_order[i] != slow.state.asked_order[i]
                ),
                length,
            )
            raise VerificationError(
                f"{label}: asked vertices diverge at step {step}: incremental "
                f"{fast.state.asked_order[step : step + 3]} vs scratch "
                f"{slow.state.asked_order[step : step + 3]}"
            )
        if not np.array_equal(fast.state.colors, slow.state.colors):
            vertex = int(np.flatnonzero(fast.state.colors != slow.state.colors)[0])
            raise VerificationError(
                f"{label}: final colors diverge at vertex {vertex}"
            )
    if fast.labels != slow.labels:
        diff = [
            pair
            for pair in set(fast.labels) | set(slow.labels)
            if fast.labels.get(pair) != slow.labels.get(pair)
        ][:5]
        raise VerificationError(
            f"{label}: labels diverge between incremental and scratch "
            f"(e.g. {diff})"
        )
    if (fast.questions, fast.iterations) != (slow.questions, slow.iterations):
        raise VerificationError(
            f"{label}: question/iteration counts diverge: incremental "
            f"({fast.questions}, {fast.iterations}) vs scratch "
            f"({slow.questions}, {slow.iterations})"
        )


def check_selector_monotone_oracle(
    selector_name: str,
    pairs: Sequence[Pair],
    vectors: np.ndarray,
    seed: int,
) -> None:
    """Perfect crowd + monotone truth ⇒ the run must recover truth exactly.

    Runs on the ungrouped graph (grouped graphs answer one member per group,
    so exactness is only guaranteed per-vertex).  Catches inverted
    propagation, broken layering, and billing-free mutants that still
    mis-label.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    truth = _pair_truth_from_vertices(pairs, monotone_truth(vectors))
    graph = PairGraph(pairs, vectors)
    result = _run_selector(selector_name, graph, truth, seed)
    for pair, expected in truth.items():
        actual = result.labels.get(pair)
        if actual != expected:
            raise VerificationError(
                f"selector[{selector_name}] seed={seed}: perfect crowd on "
                f"monotone truth mislabeled pair {pair}: got {actual}, "
                f"expected {expected}"
            )


# --------------------------------------------------------------------------- #
# Observability-transparency differential
# --------------------------------------------------------------------------- #


def _compare_runs(label: str, plain: SelectionResult, observed: SelectionResult) -> None:
    """Demand two selector runs are byte-identical in every semantic field."""
    if plain.state is not None and observed.state is not None:
        if plain.state.asked_order != observed.state.asked_order:
            length = min(
                len(plain.state.asked_order), len(observed.state.asked_order)
            )
            step = next(
                (
                    i
                    for i in range(length)
                    if plain.state.asked_order[i] != observed.state.asked_order[i]
                ),
                length,
            )
            raise VerificationError(
                f"{label}: question transcript diverges at step {step}: "
                f"plain {plain.state.asked_order[step : step + 3]} vs observed "
                f"{observed.state.asked_order[step : step + 3]}"
            )
        if not np.array_equal(plain.state.colors, observed.state.colors):
            vertex = int(
                np.flatnonzero(plain.state.colors != observed.state.colors)[0]
            )
            raise VerificationError(f"{label}: final colors diverge at vertex {vertex}")
    if plain.labels != observed.labels:
        diff = [
            pair
            for pair in set(plain.labels) | set(observed.labels)
            if plain.labels.get(pair) != observed.labels.get(pair)
        ][:5]
        raise VerificationError(f"{label}: labels diverge (e.g. {diff})")
    for field in ("questions", "iterations", "cost_cents"):
        if getattr(plain, field) != getattr(observed, field):
            raise VerificationError(
                f"{label}: {field} diverges: plain {getattr(plain, field)} vs "
                f"observed {getattr(observed, field)}"
            )


def check_observability_transparent(
    selector_name: str,
    pairs: Sequence[Pair],
    vectors: np.ndarray,
    seed: int,
    epsilon: float | None = None,
    band: str | None = None,
) -> None:
    """Instrumentation must be invisible: obs on and off, identical runs.

    The same selector (same seed, fresh graph and crowd per side) runs once
    with observability disabled and once under a fully enabled
    :class:`~repro.obs.Observability` (tracing + metrics).  The question
    transcript, final coloring, labels, question/iteration counts, and the
    bill must be byte-identical — the observability hooks' contract is to
    *read* the pipeline, never steer it.  The run with instrumentation on
    must also actually produce spans and metrics, so a silently-disabled
    tracer cannot make the check vacuous.

    The ``obs-perturbs-selection`` mutation mutant attacks exactly the
    :func:`~repro.obs.instrument.observe_round` seam this check certifies;
    no other battery step runs with observability enabled, so only this
    check can catch it — proving it has teeth.
    """
    from ..obs import Observability, activated
    from ..obs.trace import structure

    vectors = np.asarray(vectors, dtype=np.float64)
    truth = _pair_truth_from_vertices(pairs, monotone_truth(vectors))

    def build() -> OrderedGraph:
        base = PairGraph(pairs, vectors)
        if epsilon is None:
            return base
        from ..graph.grouping import split_grouping

        return GroupedGraph(base, split_grouping(vectors, epsilon))

    plain = _run_selector(selector_name, build(), truth, seed, band=band)
    obs = Observability(tracing=True, metrics=True)
    with activated(obs):
        observed = _run_selector(selector_name, build(), truth, seed, band=band)
    label = (
        f"observability-transparent[{selector_name}] seed={seed} "
        f"epsilon={epsilon}"
    )
    _compare_runs(label, plain, observed)
    spans = obs.tracer.export()
    names = [name for _, name in structure(spans)]
    if "selection.run" not in names:
        raise VerificationError(
            f"{label}: the instrumented run produced no selection.run span "
            f"(got {sorted(set(names))}) — the transparency check would be "
            "vacuous"
        )
    if not obs.registry.family("repro_selection_rounds_total"):
        raise VerificationError(
            f"{label}: the instrumented run recorded no selection metrics — "
            "the transparency check would be vacuous"
        )


def check_observability_transparent_table(
    table: Table, seed: int = 0, worker_band: str = "90"
) -> None:
    """End-to-end transparency: a full resolve with obs on equals obs off.

    Same contract as :func:`check_observability_transparent`, but through
    :meth:`~repro.core.resolver.PowerResolver.resolve` on a real table —
    covering the join, vectorize, construct, and cluster stage hooks as
    well as the selection loop.
    """
    from ..core.config import PowerConfig
    from ..core.resolver import PowerResolver
    from ..obs import Observability, activated

    plain = PowerResolver(PowerConfig(seed=seed)).resolve(
        table, worker_band=worker_band
    )
    obs = Observability(tracing=True, metrics=True)
    with activated(obs):
        observed = PowerResolver(PowerConfig(seed=seed)).resolve(
            table, worker_band=worker_band
        )
    label = f"observability-transparent[resolve] table={table.name!r} seed={seed}"
    _compare_runs(label, plain.selection, observed.selection)
    if plain.matches != observed.matches:
        raise VerificationError(
            f"{label}: match sets diverge: "
            f"{len(observed.matches - plain.matches)} extra, "
            f"{len(plain.matches - observed.matches)} missing"
        )
    if plain.clusters != observed.clusters:
        raise VerificationError(
            f"{label}: clusters diverge "
            f"({len(observed.clusters)} vs {len(plain.clusters)})"
        )
    if not obs.tracer.export():
        raise VerificationError(
            f"{label}: the instrumented resolve produced no trace — the "
            "transparency check would be vacuous"
        )


# --------------------------------------------------------------------------- #
# Streaming-resolution differential
# --------------------------------------------------------------------------- #


def _stream_chunks(table: Table, batches: int):
    """Split *table*'s records into *batches* contiguous, non-empty chunks."""
    records = list(table)
    size = max(1, -(-len(records) // batches))
    return [records[start : start + size] for start in range(0, len(records), size)]


def check_stream_equivalence(
    table: Table,
    seed: int = 0,
    batch_counts: Sequence[int] = (3,),
    worker_band: str = "90",
) -> None:
    """Streamed resolution must agree with one-shot, and survive a kill.

    Three tiers, each a theorem the streaming layer is built on:

    1. **Single-batch bit-identity.** A one-batch stream is the one-shot
       pipeline with extra bookkeeping, so *everything* must match: the
       candidate-pair universe, every pair label, the asked-pair set, the
       question/iteration counts, the pooled bill, and the clusters.
    2. **Multi-batch semantic equality.** Under a perfect crowd on monotone
       truth (ungrouped graphs — the regime where inference provably
       recovers truth exactly), a stream of batches must decide exactly
       the one-shot candidate-pair universe and produce identical labels,
       matches, and clusters.  This is the tier that catches a resumed
       join that loses state between batches: a batch that never meets
       the earlier records silently loses its candidate pairs, shrinking
       the decided universe.
    3. **Kill-resume bit-identity.** Checkpoint after every batch, kill
       the process after the first checkpoint (simulated by a torn
       manifest tail — the worst crash the journal contract allows), then
       restore and finish.  The resumed run must match the uninterrupted
       one bit-for-bit: labels, crowd transcripts, totals, and the final
       checkpoint's ``state_sha``, with no previously-paid pair re-asked.
    """
    import tempfile
    from pathlib import Path

    from ..core.config import PowerConfig
    from ..core.resolver import PowerResolver
    from ..data.ground_truth import pair_truth
    from ..stream import MANIFEST_NAME, StreamingResolver

    config = PowerConfig(seed=seed)

    # ---- Tier 1: one batch vs one shot, bit for bit ---------------------- #
    resolver = PowerResolver(config)
    pairs = resolver.candidate_pairs(table)
    truth = pair_truth(table, pairs)
    one_shot_crowd = SimulatedCrowd(
        truth,
        pool=WorkerPool(accuracy_range=worker_band, seed=seed),
        assignments=config.assignments,
    )
    one_shot_session = one_shot_crowd.session()
    one_shot = resolver.resolve(table, session=one_shot_session)

    stream = StreamingResolver(
        table.attributes, config=config, name=table.name, worker_band=worker_band
    )
    stream.add_batch(
        [record.values for record in table],
        entity_ids=[record.entity_id for record in table],
    )
    label = f"stream-equivalence[{table.name!r}] single-batch"
    if stream.labels != one_shot.selection.labels:
        diff = [
            pair
            for pair in set(stream.labels) | set(one_shot.selection.labels)
            if stream.labels.get(pair) != one_shot.selection.labels.get(pair)
        ]
        raise VerificationError(
            f"{label}: {len(diff)} pair labels diverge (e.g. {sorted(diff)[:5]})"
        )
    if stream.asked_pairs != one_shot_session.asked_pairs:
        extra = stream.asked_pairs - one_shot_session.asked_pairs
        missing = one_shot_session.asked_pairs - stream.asked_pairs
        raise VerificationError(
            f"{label}: asked-pair sets diverge: {len(extra)} extra, "
            f"{len(missing)} missing"
        )
    for field, streamed, serial in (
        ("questions", stream.total_questions, one_shot.questions),
        ("iterations", stream.total_iterations, one_shot.iterations),
        ("cost_cents", stream.cost_cents, one_shot.cost_cents),
    ):
        if streamed != serial:
            raise VerificationError(
                f"{label}: {field} diverges: streamed {streamed} vs "
                f"one-shot {serial}"
            )
    if stream.clusters() != one_shot.clusters:
        raise VerificationError(
            f"{label}: clusters diverge ({len(stream.clusters())} vs "
            f"{len(one_shot.clusters)})"
        )

    # ---- Tier 2: batched vs one shot under the exactness oracle ---------- #
    exact_config = PowerConfig(seed=seed, epsilon=None)
    exact_resolver = PowerResolver(exact_config)
    vectors = exact_resolver.similarity_vectors(table, pairs)
    oracle_truth = _pair_truth_from_vertices(pairs, monotone_truth(vectors))
    for batches in batch_counts:
        crowd = PerfectCrowd(oracle_truth, assignments=exact_config.assignments)
        serial = exact_resolver.resolve(table, session=crowd.session())
        streamed = StreamingResolver(
            table.attributes,
            config=exact_config,
            name=table.name,
            crowd=PerfectCrowd(oracle_truth, assignments=exact_config.assignments),
        )
        label = f"stream-equivalence[{table.name!r}] batches={batches}"
        for chunk in _stream_chunks(table, batches):
            try:
                streamed.add_batch(
                    [record.values for record in chunk],
                    entity_ids=[record.entity_id for record in chunk],
                )
            except CrowdError as error:
                raise VerificationError(
                    f"{label}: the stream asked a pair outside the one-shot "
                    f"candidate pairs ({error})"
                ) from error
        if set(streamed.labels) != set(serial.candidate_pairs):
            missing = set(serial.candidate_pairs) - set(streamed.labels)
            extra = set(streamed.labels) - set(serial.candidate_pairs)
            raise VerificationError(
                f"{label}: decided-pair universe diverges from the one-shot "
                f"candidate pairs: {len(missing)} missing, {len(extra)} extra "
                "(the resumed candidate join must cover every new×old "
                "and new×new pair the one-shot join finds)"
            )
        if streamed.labels != serial.selection.labels:
            diff = [
                pair
                for pair in streamed.labels
                if streamed.labels[pair] != serial.selection.labels.get(pair)
            ]
            raise VerificationError(
                f"{label}: labels diverge under a perfect crowd on monotone "
                f"truth (e.g. {sorted(diff)[:5]})"
            )
        if streamed.matches != serial.matches:
            raise VerificationError(
                f"{label}: match sets diverge: "
                f"{len(streamed.matches - serial.matches)} extra, "
                f"{len(serial.matches - streamed.matches)} missing"
            )
        if streamed.clusters() != serial.clusters:
            raise VerificationError(
                f"{label}: clusters diverge ({len(streamed.clusters())} vs "
                f"{len(serial.clusters)})"
            )

    # ---- Tier 3: kill after the first checkpoint, resume, finish --------- #
    batches = max(batch_counts) if batch_counts else 3
    chunks = _stream_chunks(table, batches)
    if len(chunks) >= 2:
        with tempfile.TemporaryDirectory(prefix="repro-stream-check-") as root:
            straight_dir = Path(root) / "uninterrupted"
            resumed_dir = Path(root) / "resumed"

            straight = StreamingResolver(
                table.attributes,
                config=config,
                name=table.name,
                worker_band=worker_band,
                checkpoint_dir=straight_dir,
            )
            for chunk in chunks:
                straight.add_batch(
                    [record.values for record in chunk],
                    entity_ids=[record.entity_id for record in chunk],
                )
                straight_record = straight.checkpoint()
            straight.close()

            victim = StreamingResolver(
                table.attributes,
                config=config,
                name=table.name,
                worker_band=worker_band,
                checkpoint_dir=resumed_dir,
            )
            victim.add_batch(
                [record.values for record in chunks[0]],
                entity_ids=[record.entity_id for record in chunks[0]],
            )
            victim.checkpoint()
            victim.close()  # as the OS closes a killed process's files
            # The kill: the process dies mid-append, leaving a torn trailing
            # line on the manifest — the exact damage the journal repair
            # discipline truncates away on restore.
            with open(resumed_dir / MANIFEST_NAME, "ab") as manifest:
                manifest.write(b'{"type": "checkpoint", "ba')
            del victim

            resumed = StreamingResolver.restore(resumed_dir)
            paid_before = resumed.asked_pairs
            for chunk in chunks[1:]:
                resumed.add_batch(
                    [record.values for record in chunk],
                    entity_ids=[record.entity_id for record in chunk],
                )
                resumed_record = resumed.checkpoint()
            resumed.close()

            label = f"stream-equivalence[{table.name!r}] kill-resume"
            re_paid = {
                pair
                for report in resumed.reports[1:]
                for pair in report["asked_pairs"]
            } & paid_before
            if re_paid:
                raise VerificationError(
                    f"{label}: {len(re_paid)} already-paid pairs were asked "
                    f"again after restore (e.g. {sorted(re_paid)[:5]})"
                )
            if resumed.labels != straight.labels:
                diff = [
                    pair
                    for pair in set(resumed.labels) | set(straight.labels)
                    if resumed.labels.get(pair) != straight.labels.get(pair)
                ]
                raise VerificationError(
                    f"{label}: labels diverge from the uninterrupted run "
                    f"(e.g. {sorted(diff)[:5]})"
                )
            if resumed.transcripts != straight.transcripts:
                raise VerificationError(
                    f"{label}: crowd transcripts diverge from the "
                    "uninterrupted run"
                )
            for field, resumed_value, straight_value in (
                ("total_questions", resumed.total_questions, straight.total_questions),
                ("total_iterations", resumed.total_iterations, straight.total_iterations),
                ("cost_cents", resumed.cost_cents, straight.cost_cents),
            ):
                if resumed_value != straight_value:
                    raise VerificationError(
                        f"{label}: {field} diverges: resumed {resumed_value} "
                        f"vs uninterrupted {straight_value}"
                    )
            if resumed_record["state_sha"] != straight_record["state_sha"]:
                raise VerificationError(
                    f"{label}: final checkpoint state_sha diverges: resumed "
                    f"{resumed_record['state_sha'][:12]} vs uninterrupted "
                    f"{straight_record['state_sha'][:12]}"
                )


# --------------------------------------------------------------------------- #
# Serve equivalence
# --------------------------------------------------------------------------- #


def check_serve_equivalence(
    table: Table,
    seed: int = 0,
    tenants: int = 3,
    batches: int = 2,
    worker_band: str = "90",
) -> None:
    """Resolution through the server must equal driving the stream directly.

    Two tiers, matching the two ways the serving layer could corrupt a
    session:

    1. **Concurrent interleaved tenants.** *tenants* sessions (distinct
       seeds, distinct batch counts) ingest simultaneously over real
       sockets against one server.  Worker answers depend only on
       ``(seed, worker_id, pair)`` and each session is a single-writer
       actor, so every tenant's final checkpoint ``state_sha`` must be
       bit-identical to a direct, serial :class:`StreamingResolver` run —
       no matter how the event loop interleaved them.
    2. **Evict/restore alternation.** Two tenants alternate batches
       against a registry capped at one resident session, forcing a full
       checkpoint → evict → restore cycle on *every* switch.  The final
       ``state_sha`` per tenant must still match the direct run — the
       tier that catches a registry handing back the wrong resolver
       after eviction (the ``serve-cross-session-leak`` mutant), since
       the tenants' states differ by construction.
    """
    import asyncio
    import tempfile
    from pathlib import Path

    from ..core.config import PowerConfig
    from ..serve import AsyncServeClient, ResolutionServer, ServeApp
    from ..stream import StreamingResolver

    def tenant_plan(count: int, base_batches: int):
        # Distinct seeds and batch counts: identical tenants could hide a
        # cross-wired registry (leaked state would be the right state).
        return [
            (f"tenant{index}", seed + index, base_batches + (index % 2))
            for index in range(count)
        ]

    def direct_sha(root: Path, name: str, tenant_seed: int, chunks) -> str:
        resolver = StreamingResolver(
            table.attributes,
            config=PowerConfig(seed=tenant_seed),
            name=name,
            checkpoint_dir=root / f"direct-{name}",
            worker_band=worker_band,
        )
        for chunk in chunks:
            resolver.add_batch(
                [record.values for record in chunk],
                entity_ids=[record.entity_id for record in chunk],
            )
        sha = resolver.checkpoint()["state_sha"]
        resolver.close()
        return sha

    def encoded_config(tenant_seed: int) -> dict:
        from ..stream.service import _encode_config

        return _encode_config(PowerConfig(seed=tenant_seed))

    # ---- Tier 1: concurrent tenants over real sockets -------------------- #
    with tempfile.TemporaryDirectory(prefix="repro-serve-check-") as root:
        root = Path(root)
        plan = tenant_plan(tenants, batches)

        async def tier_concurrent() -> dict[str, str]:
            app = ServeApp(root / "served", max_sessions=tenants + 1)
            shas: dict[str, str] = {}
            async with ResolutionServer(app) as server:

                async def drive(name: str, tenant_seed: int, count: int):
                    async with AsyncServeClient(port=server.port) as client:
                        await client.create_session(
                            name,
                            list(table.attributes),
                            config=encoded_config(tenant_seed),
                            worker_band=worker_band,
                        )
                        for chunk in _stream_chunks(table, count):
                            await client.ingest(
                                name,
                                [list(record.values) for record in chunk],
                                [record.entity_id for record in chunk],
                            )
                        record = await client.checkpoint(name)
                        shas[name] = record["state_sha"]

                await asyncio.gather(
                    *(drive(name, s, count) for name, s, count in plan)
                )
            await app.drain()
            return shas

        served = asyncio.run(tier_concurrent())
        for name, tenant_seed, count in plan:
            expected = direct_sha(
                root, name, tenant_seed, _stream_chunks(table, count)
            )
            label = f"serve-equivalence[{table.name!r}] concurrent {name}"
            if served[name] != expected:
                raise VerificationError(
                    f"{label}: state_sha through the server "
                    f"({served[name][:12]}) diverges from the direct "
                    f"StreamingResolver run ({expected[:12]})"
                )

    # ---- Tier 2: forced evict/restore on every tenant switch ------------- #
    with tempfile.TemporaryDirectory(prefix="repro-serve-check-") as root:
        root = Path(root)
        alt_batches = max(2, batches)
        plan = [("alt0", seed, alt_batches), ("alt1", seed + 1, alt_batches)]
        chunk_lists = {
            name: _stream_chunks(table, count) for name, _, count in plan
        }

        async def tier_alternating() -> dict[str, str]:
            app = ServeApp(root / "served", max_sessions=1)

            async def call(op: str, **fields):
                response = await app.dispatch({"op": op, "id": 0, **fields})
                if not response.get("ok"):
                    raise VerificationError(
                        f"serve-equivalence[{table.name!r}] alternation: "
                        f"{op} failed: {response.get('message')}"
                    )
                return response

            for name, tenant_seed, _count in plan:
                await call(
                    "create_session",
                    session=name,
                    attributes=list(table.attributes),
                    config=encoded_config(tenant_seed),
                    worker_band=worker_band,
                )
            rounds = max(len(chunks) for chunks in chunk_lists.values())
            for index in range(rounds):
                for name, _seed, _count in plan:
                    if index >= len(chunk_lists[name]):
                        continue
                    chunk = chunk_lists[name][index]
                    await call(
                        "ingest",
                        session=name,
                        rows=[list(record.values) for record in chunk],
                        entity_ids=[record.entity_id for record in chunk],
                    )
            shas = {}
            for name, _seed, _count in plan:
                shas[name] = (await call("close", session=name))["state_sha"]
            if app.registry.evictions < 1 or app.registry.restores < 1:
                raise VerificationError(
                    f"serve-equivalence[{table.name!r}] alternation: the "
                    "schedule was supposed to force evict/restore cycles "
                    f"(evictions={app.registry.evictions}, "
                    f"restores={app.registry.restores})"
                )
            await app.drain()
            return shas

        served = asyncio.run(tier_alternating())
        for name, tenant_seed, _count in plan:
            expected = direct_sha(root, name, tenant_seed, chunk_lists[name])
            label = f"serve-equivalence[{table.name!r}] alternation {name}"
            if served[name] != expected:
                raise VerificationError(
                    f"{label}: state_sha after forced evict/restore cycles "
                    f"({served[name][:12]}) diverges from the direct run "
                    f"({expected[:12]}) — the registry is not restoring the "
                    "session it evicted"
                )
