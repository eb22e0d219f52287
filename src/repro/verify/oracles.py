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
  production candidate join (and a random tiling of its range form) must
  reproduce pair for pair.
* :class:`NaivePairGraph` / :class:`NaiveGroupedGraph` — brute-force
  :class:`~repro.graph.dag.OrderedGraph` implementations.  Running the
  *same* selector against the naive and the production graph with identical
  crowds must produce identical runs, question for question — which
  exercises the blocked dominance kernel, the vectorized masks, and the
  grouped-bound arithmetic under every selector's real access pattern.
* :class:`ReferenceColoring` — a dict/set replay of the coloring engine's
  pin-and-vote semantics (§3.2/§5.3), cross-checked against the production
  :class:`~repro.graph.coloring.ColoringState` after each run.
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
from ..exceptions import VerificationError
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


def prefix_join(token_sets: Sequence[frozenset[str]], threshold: float) -> set[Pair]:
    """Prefix-filtered self-join for Jaccard.

    For Jaccard(a, b) >= t, the sets must share a token within the first
    ``|a| - ceil(t * |a|) + 1`` tokens when both sets are ordered by a global
    token order (rarest first).  We index those prefixes and verify only the
    colliding pairs.  Empty sets have no prefix and pair among themselves
    (``jaccard(∅, ∅) == 1``).
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
        prefix_len = size - math.ceil(threshold * size) + 1
        candidates: set[int] = set()
        for token in sorted(my_set, key=order.__getitem__)[:prefix_len]:
            candidates.update(index[token])
            index[token].append(record_id)
        for other in candidates:
            other_set = token_sets[other]
            # Length filter: |b| >= t * |a| is necessary for Jaccard >= t.
            if len(other_set) < threshold * size or size < threshold * len(other_set):
                continue
            if jaccard(my_set, other_set) >= threshold:
                pairs.add((other, record_id))
    return pairs


def check_join_methods(table: Table, threshold: float, seed: int = 0) -> None:
    """The production candidate join must equal both join oracles.

    Checks, against :func:`naive_join`: :func:`prefix_join` (so the two
    oracles vouch for each other), :func:`~repro.similarity.join.similar_pairs`,
    and the union of :func:`~repro.similarity.join.similar_pairs_range`
    over a seeded random tiling of ``[0, n)`` — which must also be
    disjoint, since each pair is owned by exactly one range.
    """
    from ..similarity.join import similar_pairs, similar_pairs_range
    from ..similarity.tokenize import word_tokens

    token_sets = [word_tokens(table.record_text(r.record_id)) for r in table]
    reference = naive_join(token_sets, threshold)
    _diff_edges("naive join", reference, "prefix join", prefix_join(token_sets, threshold))
    _diff_edges(
        "naive join", reference, "production join", set(similar_pairs(table, threshold))
    )
    n = len(table)
    rng = np.random.default_rng(seed)
    interior = rng.integers(1, n, size=3).tolist() if n > 1 else []
    cuts = sorted(set(interior) | {0, n})
    tiled: list[Pair] = []
    for lo, hi in zip(cuts, cuts[1:]):
        tiled.extend(similar_pairs_range(table, threshold, lo, hi))
    label = f"production join tiled at {cuts}"
    if len(tiled) != len(set(tiled)):
        raise VerificationError(f"{label}: ranges emit overlapping pairs")
    _diff_edges("naive join", reference, label, set(tiled))


# --------------------------------------------------------------------------- #
# Naive crowd aggregation oracle
# --------------------------------------------------------------------------- #


def check_crowd_aggregation(crowd: SimulatedCrowd, pairs: Sequence[Pair]) -> None:
    """The platform's cached answers must equal a naive recomputation.

    For every pair the oracle re-derives the worker assignment, the
    individual votes, and the (weighted) majority aggregate with plain
    Python loops, then compares answer, confidence, and the vote tuple
    against ``crowd.answer`` — twice, so a poisoned or bypassed answer
    cache is caught as well.
    """
    from ..data.ground_truth import canonical_pair

    for raw_pair in pairs:
        pair = canonical_pair(*raw_pair)
        truth = crowd.truth[pair]
        workers = crowd._select_workers(pair)
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
        for attempt in ("first ask", "cached re-ask"):
            outcome = crowd.answer(pair)
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

    def representative_pair(self, vertex: int, rng: np.random.Generator) -> Pair:
        self._check_vertex(vertex)
        group = self.grouping[vertex]
        return self.base.pairs[group[int(rng.integers(0, len(group)))]]


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
        # BLUE pins without voting, per mark_blue.

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


def _run_selector(
    selector_name: str,
    graph: OrderedGraph,
    truth: dict[Pair, bool],
    seed: int,
    band: str | None = None,
    incremental: bool = True,
) -> SelectionResult:
    if selector_name == "greedy-reference":
        selector = GreedyReferenceSelector(seed=seed, incremental=incremental)
    else:
        selector = SELECTORS[selector_name](seed=seed, incremental=incremental)
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
    and once forced onto the per-round scratch paths, on *fresh* graph
    instances so no index leaks across sides.  Questions asked — vertex for
    vertex, in order — labels, counts, and the final coloring must all be
    equal; any divergence means the warm-started matching or the packed
    propagation masks drifted from the reference.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    truth = _pair_truth_from_vertices(pairs, monotone_truth(vectors))

    def build() -> OrderedGraph:
        base = PairGraph(pairs, vectors)
        if epsilon is None:
            return base
        from ..graph.grouping import split_grouping

        return GroupedGraph(base, split_grouping(vectors, epsilon))

    fast = _run_selector(
        selector_name, build(), truth, seed, band=band, incremental=True
    )
    slow = _run_selector(
        selector_name, build(), truth, seed, band=band, incremental=False
    )
    label = f"selection-incremental[{selector_name}] seed={seed} epsilon={epsilon}"
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
# Sharded-resolution differential
# --------------------------------------------------------------------------- #


def check_shard_equivalence(
    table: Table,
    seed: int = 0,
    shard_counts: Sequence[int] = (2, 4),
    worker_band: str = "90",
) -> None:
    """The exact sharded resolver must be byte-identical to the serial one.

    Runs :class:`~repro.core.resolver.PowerResolver` once, then
    :class:`~repro.shard.ShardedResolver` in its exact lockstep mode for
    every shard count in *shard_counts* (inline, ``workers=0`` — so the
    differential attacks the task/merge decomposition itself, not
    multiprocessing luck), and demands identical labels, matches, question
    and iteration counts, billing, and clusters.

    This is the check that catches merge mutants: a merge that drops a
    slice's vote contribution, mis-tiles a chunk, or double-counts a shard
    changes at least one of these observables on any non-trivial table.
    """
    from ..core.config import PowerConfig
    from ..core.resolver import PowerResolver
    from ..shard.resolver import ShardedResolver

    serial = PowerResolver(PowerConfig(seed=seed)).resolve(
        table, worker_band=worker_band
    )
    for shards in shard_counts:
        sharded = ShardedResolver(
            PowerConfig(seed=seed, shards=int(shards)), workers=0
        ).resolve(table, worker_band=worker_band)
        label = f"shards={shards} on {table.name!r}"
        if sharded.candidate_pairs != serial.candidate_pairs:
            extra = set(sharded.candidate_pairs) - set(serial.candidate_pairs)
            missing = set(serial.candidate_pairs) - set(sharded.candidate_pairs)
            raise VerificationError(
                f"shard-equivalence[{label}]: candidate pairs diverge: "
                f"{len(extra)} extra, {len(missing)} missing "
                f"(range-join tiling must reproduce the serial join exactly)"
            )
        for field, sharded_value, serial_value in (
            ("questions", sharded.questions, serial.questions),
            ("iterations", sharded.iterations, serial.iterations),
            ("cost_cents", sharded.cost_cents, serial.cost_cents),
        ):
            if sharded_value != serial_value:
                raise VerificationError(
                    f"shard-equivalence[{label}]: {field} diverges: "
                    f"sharded {sharded_value} vs serial {serial_value}"
                )
        if sharded.selection.labels != serial.selection.labels:
            diff = [
                pair
                for pair in set(sharded.selection.labels)
                | set(serial.selection.labels)
                if sharded.selection.labels.get(pair)
                != serial.selection.labels.get(pair)
            ]
            raise VerificationError(
                f"shard-equivalence[{label}]: {len(diff)} pair labels "
                f"diverge (e.g. {sorted(diff)[:5]})"
            )
        if sharded.matches != serial.matches:
            raise VerificationError(
                f"shard-equivalence[{label}]: match sets diverge: "
                f"{len(sharded.matches - serial.matches)} extra, "
                f"{len(serial.matches - sharded.matches)} missing"
            )
        if sharded.clusters != serial.clusters:
            raise VerificationError(
                f"shard-equivalence[{label}]: clusters diverge "
                f"({len(sharded.clusters)} vs {len(serial.clusters)})"
            )
        sharded_state = sharded.selection.state
        serial_state = serial.selection.state
        if sharded_state is not None and serial_state is not None:
            if sharded_state.asked_order != serial_state.asked_order:
                raise VerificationError(
                    f"shard-equivalence[{label}]: question transcript order "
                    "diverges"
                )
            if not np.array_equal(sharded_state.colors, serial_state.colors):
                vertex = int(
                    np.flatnonzero(sharded_state.colors != serial_state.colors)[0]
                )
                raise VerificationError(
                    f"shard-equivalence[{label}]: final colors diverge at "
                    f"vertex {vertex}"
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
# Plan-transparency differential
# --------------------------------------------------------------------------- #


def check_plan_transparency(
    table: Table, seed: int = 0, worker_band: str = "90"
) -> None:
    """Any plan — even an adversarially bad one — must be results-invisible.

    The cost planner's contract is that it only rewrites pure-performance
    knobs: a plan may make a run slower or faster, never different.  This
    check pins that contract end to end:

    1. **Production wiring.** ``PowerConfig(plan="auto")`` resolves the
       table through the full plan → apply → clone path and must be
       bit-identical to the static-defaults run in transcript, coloring,
       labels, question/iteration counts, billing, matches, and clusters.
       Non-vacuity: the planned run must actually carry its plan in
       ``selection.extras`` (a silently skipped planner would make the
       check meaningless).
    2. **Adversarial plans.** Hand-built plans that deliberately pick the
       *worst* settings (the scalar similarity path, scratch selection
       with the reachability index off, pointless shard counts) go through the same
       :func:`repro.plan.planner.apply_plan` seam and must still be
       bit-identical.  Speed is allowed to suffer; results are not.

    ``apply_plan`` is looked up on the module at call time on purpose:
    the ``plan-changes-results`` mutation mutant patches exactly that
    seam (a planner that flips a semantic knob such as ``epsilon``), and
    no other battery step runs a planned resolve — only this check can
    catch it.
    """
    from ..core.config import PowerConfig
    from ..core.resolver import PowerResolver
    from ..plan import planner as plan_planner

    baseline = PowerResolver(PowerConfig(seed=seed)).resolve(
        table, worker_band=worker_band
    )

    def compare(label: str, result) -> None:
        _compare_runs(label, baseline.selection, result.selection)
        if baseline.matches != result.matches:
            raise VerificationError(
                f"{label}: match sets diverge: "
                f"{len(result.matches - baseline.matches)} extra, "
                f"{len(baseline.matches - result.matches)} missing"
            )
        if baseline.clusters != result.clusters:
            raise VerificationError(
                f"{label}: clusters diverge "
                f"({len(result.clusters)} vs {len(baseline.clusters)})"
            )

    # Tier 1: the production plan="auto" path.
    auto = PowerResolver(PowerConfig(seed=seed, plan="auto")).resolve(
        table, worker_band=worker_band
    )
    label = f"plan-transparency[auto] table={table.name!r} seed={seed}"
    compare(label, auto)
    if "plan" not in auto.selection.extras:
        raise VerificationError(
            f"{label}: the planned run carries no plan in its extras — "
            "the planner never ran and the transparency check would be "
            "vacuous"
        )

    # Tier 2: adversarial plans through the apply_plan seam.
    stats = plan_planner.TableStats.from_table(
        table, threshold=PowerConfig().pruning_threshold, seed=seed
    )
    adversarial_knob_sets = (
        {"use_batch_similarity": False},
        {
            "use_incremental_selection": False,
            "reachability_index": "off",
        },
        {
            "use_batch_similarity": True,
            "use_incremental_selection": True,
            "reachability_index": "auto",
            "shards": 3,
        },
    )
    for knobs in adversarial_knob_sets:
        plan = plan_planner.Plan(
            stats=stats,
            calibrated=False,
            decisions=tuple(
                plan_planner.PlanDecision(
                    knob=knob,
                    chosen=value,
                    prediction=None,
                    reason="adversarial transparency probe",
                )
                for knob, value in knobs.items()
            ),
        )
        config = plan_planner.apply_plan(PowerConfig(seed=seed), plan)
        for knob, value in knobs.items():
            if getattr(config, knob) != value:
                raise VerificationError(
                    f"plan-transparency: apply_plan dropped {knob}={value!r} "
                    "— the adversarial probe would be vacuous"
                )
        result = PowerResolver(config).resolve(table, worker_band=worker_band)
        compare(
            f"plan-transparency[{'/'.join(sorted(knobs))}] "
            f"table={table.name!r} seed={seed}",
            result,
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
       matches, and clusters.  This is the tier that catches a stale token
       index: a batch whose records never enter the index silently loses
       its candidate pairs, shrinking the decided universe.
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

    stream = StreamingResolver(table.attributes, config=config, name=table.name)
    stream.add_batch(
        [record.values for record in table],
        entity_ids=[record.entity_id for record in table],
        worker_band=worker_band,
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
        for chunk in _stream_chunks(table, batches):
            streamed.add_batch(
                [record.values for record in chunk],
                entity_ids=[record.entity_id for record in chunk],
            )
        label = f"stream-equivalence[{table.name!r}] batches={batches}"
        if set(streamed.labels) != set(serial.candidate_pairs):
            missing = set(serial.candidate_pairs) - set(streamed.labels)
            extra = set(streamed.labels) - set(serial.candidate_pairs)
            raise VerificationError(
                f"{label}: decided-pair universe diverges from the one-shot "
                f"candidate pairs: {len(missing)} missing, {len(extra)} extra "
                "(the incremental candidate sweep must cover every new×old "
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
                checkpoint_dir=straight_dir,
            )
            for chunk in chunks:
                straight.add_batch(
                    [record.values for record in chunk],
                    entity_ids=[record.entity_id for record in chunk],
                    worker_band=worker_band,
                )
                straight_record = straight.checkpoint()

            victim = StreamingResolver(
                table.attributes,
                config=config,
                name=table.name,
                checkpoint_dir=resumed_dir,
            )
            victim.add_batch(
                [record.values for record in chunks[0]],
                entity_ids=[record.entity_id for record in chunks[0]],
                worker_band=worker_band,
            )
            victim.checkpoint()
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
                    worker_band=worker_band,
                )
                resumed_record = resumed.checkpoint()

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
        return resolver.checkpoint()["state_sha"]

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
            app.registry.shutdown()
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
