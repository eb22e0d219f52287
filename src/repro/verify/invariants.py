"""Invariant checkers: structural laws the pipeline must never break.

Each checker is a plain function raising
:class:`~repro.exceptions.VerificationError` with a counterexample, so they
compose into test assertions, the ``repro verify`` battery, and the
always-on :class:`VerifyingSession` sanitizer alike.

Catalog:

* partial order — antisymmetry, irreflexivity, transitivity
  (:func:`check_partial_order`), DAG acyclicity (:func:`check_acyclicity`);
* topo layers — production layering equals naive Kahn peeling, every edge
  descends strictly (:func:`check_topo_layers`);
* path cover — disjoint, covering, chain-valid, and no larger than the
  greedy cover (:func:`check_path_cover`);
* reachability index — every packed row equals the float-broadcast masks
  and the separately built adjacency lists, and nothing sits on the wrong
  side of the stored diagonal (:func:`check_reachability_index`);
* grouped graph — partition validity and bound arithmetic
  (:func:`check_grouped_partition`);
* clustering — union-find components equal naive BFS components
  (:func:`check_cluster_union_find`);
* session — billing/answer-cache coherence (:func:`check_session_coherence`),
  also enforced after *every* batch by :class:`VerifyingSession`.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterable

import numpy as np

from ..crowd.aggregate import VoteOutcome
from ..crowd.platform import CrowdSession
from ..data.ground_truth import Pair, canonical_pair
from ..exceptions import VerificationError
from ..graph.coloring import ColoringState
from ..graph.dag import OrderedGraph
from ..graph.grouped_graph import GroupedGraph


# --------------------------------------------------------------------------- #
# Partial-order laws
# --------------------------------------------------------------------------- #


def _adjacency_sets(graph: OrderedGraph) -> list[set[int]]:
    return [set(int(v) for v in children) for children in graph.adjacency()]


def check_partial_order(graph: OrderedGraph) -> None:
    """Irreflexivity, antisymmetry, and transitivity of the dominance relation.

    Also cross-checks that ``adjacency()``, ``descendant_mask`` and
    ``ancestor_mask`` describe the *same* relation — the three production
    access paths must never drift apart.
    """
    children = _adjacency_sets(graph)
    n = len(graph)
    for u in range(n):
        if u in children[u]:
            raise VerificationError(f"reflexive dominance edge ({u}, {u})")
        for v in children[u]:
            if u in children[v]:
                raise VerificationError(
                    f"antisymmetry violated: both ({u}, {v}) and ({v}, {u}) present"
                )
    for u in range(n):
        for v in children[u]:
            missing = children[v] - children[u]
            if missing:
                raise VerificationError(
                    f"transitivity violated: ({u}, {v}) and ({v}, {sorted(missing)[0]}) "
                    f"present but not ({u}, {sorted(missing)[0]})"
                )
    for u in range(n):
        from_mask = set(np.flatnonzero(graph.descendant_mask(u)).tolist())
        if from_mask != children[u]:
            raise VerificationError(
                f"descendant_mask({u}) disagrees with adjacency(): "
                f"mask {sorted(from_mask)[:5]}... vs list {sorted(children[u])[:5]}..."
            )
        up_mask = set(np.flatnonzero(graph.ancestor_mask(u)).tolist())
        up_list = {v for v in range(n) if u in children[v]}
        if up_mask != up_list:
            raise VerificationError(
                f"ancestor_mask({u}) disagrees with transposed adjacency"
            )


def check_acyclicity(graph: OrderedGraph) -> None:
    """The dominance relation must be a DAG (iterative three-color DFS)."""
    children = _adjacency_sets(graph)
    state = [0] * len(graph)  # 0 unseen, 1 on stack, 2 done
    for root in range(len(graph)):
        if state[root]:
            continue
        stack: list[tuple[int, Iterable[int]]] = [(root, iter(children[root]))]
        state[root] = 1
        while stack:
            vertex, iterator = stack[-1]
            advanced = False
            for child in iterator:
                if state[child] == 1:
                    raise VerificationError(
                        f"dominance graph has a cycle through ({vertex}, {child})"
                    )
                if state[child] == 0:
                    state[child] = 1
                    stack.append((child, iter(children[child])))
                    advanced = True
                    break
            if not advanced:
                state[vertex] = 2
                stack.pop()


# --------------------------------------------------------------------------- #
# Topological layering
# --------------------------------------------------------------------------- #


def naive_kahn_layers(graph: OrderedGraph, active: np.ndarray | None = None) -> list[list[int]]:
    """Kahn level sets by literal peeling (the obviously-correct version)."""
    n = len(graph)
    if active is None:
        active = np.ones(n, dtype=bool)
    children = _adjacency_sets(graph)
    remaining = {v for v in range(n) if active[v]}
    indegree = {v: 0 for v in remaining}
    for u in remaining:
        for v in children[u]:
            if v in remaining:
                indegree[v] += 1
    layers: list[list[int]] = []
    while remaining:
        level = sorted(v for v in remaining if indegree[v] == 0)
        if not level:
            raise VerificationError("Kahn peeling stalled: the sub-DAG has a cycle")
        layers.append(level)
        for u in level:
            remaining.discard(u)
            for v in children[u]:
                if v in remaining:
                    indegree[v] -= 1
    return layers


def check_topo_layers(graph: OrderedGraph, active: np.ndarray | None = None) -> None:
    """Production layering must equal naive Kahn peeling, level for level,
    and every edge inside the active set must descend strictly.

    Builds the graph's reachability index first, as every selection run
    does, so the layers checked are the ones peeled from its packed rows;
    a graph that declines the index is checked on the longest-chain DP.
    """
    from ..graph.topo import topological_layers

    graph.build_reachability()
    produced = [sorted(int(v) for v in layer) for layer in topological_layers(graph, active)]
    expected = naive_kahn_layers(graph, active)
    if produced != expected:
        level = next(
            (
                index
                for index in range(max(len(produced), len(expected)))
                if index >= len(produced)
                or index >= len(expected)
                or produced[index] != expected[index]
            ),
            0,
        )
        raise VerificationError(
            f"topological_layers disagrees with Kahn peeling at level {level}: "
            f"production {produced[level] if level < len(produced) else '<missing>'} "
            f"vs naive {expected[level] if level < len(expected) else '<missing>'}"
        )
    layer_of = {
        vertex: index for index, layer in enumerate(produced) for vertex in layer
    }
    children = _adjacency_sets(graph)
    for u, level in layer_of.items():
        for v in children[u]:
            if v in layer_of and layer_of[v] <= level:
                raise VerificationError(
                    f"edge ({u}, {v}) does not descend: layers "
                    f"{level} -> {layer_of[v]}"
                )


# --------------------------------------------------------------------------- #
# Path covers (the Single/Multi-Path substrate)
# --------------------------------------------------------------------------- #


def check_path_cover(graph: OrderedGraph) -> None:
    """The minimum path cover must be disjoint, covering, chain-valid, and
    no larger than the greedy cover (Dilworth minimality upper bound)."""
    from ..graph.matching import greedy_path_cover, minimum_path_cover

    adjacency = [list(int(v) for v in children) for children in graph.adjacency()]
    paths = minimum_path_cover(adjacency)
    children = [set(row) for row in adjacency]
    seen: set[int] = set()
    for path in paths:
        if not path:
            raise VerificationError("path cover contains an empty path")
        for vertex in path:
            if vertex in seen:
                raise VerificationError(
                    f"path cover is not vertex-disjoint: {vertex} appears twice"
                )
            seen.add(vertex)
        for a, b in zip(path, path[1:]):
            if b not in children[a]:
                raise VerificationError(
                    f"path cover step ({a}, {b}) is not a dominance edge"
                )
    if seen != set(range(len(graph))):
        missing = sorted(set(range(len(graph))) - seen)[:5]
        raise VerificationError(f"path cover misses vertices {missing}")
    greedy = greedy_path_cover(adjacency)
    if len(paths) > len(greedy):
        raise VerificationError(
            f"matching cover uses {len(paths)} paths but greedy found "
            f"{len(greedy)}: the matching is not maximum"
        )


# --------------------------------------------------------------------------- #
# Packed reachability index
# --------------------------------------------------------------------------- #


def check_reachability_index(graph: OrderedGraph) -> None:
    """Every packed index row must equal the graph's masks and its lists.

    Builds the index when the graph has none yet.  Its stored order must be
    a permutation, with every stored descendant row empty on and left of
    the diagonal and every ancestor row empty on and right of it.  Then
    every descendant row, read back in vertex ids, is diffed against
    ``descendant_mask`` and ``adjacency()`` (built by its own full-square
    tile pass), and every ancestor row against ``ancestor_mask`` and the
    transposed ``adjacency()``.  Byte (8) and tile (256 rows) boundaries are
    where the packing can go wrong, so callers pick sizes that straddle them.
    """
    from ..graph.reachability import unpack_mask

    index = graph.build_reachability()
    n = len(graph)
    if index is None or index.num_vertices != n:
        raise VerificationError(f"no reachability index for the {n}-vertex graph")
    if not np.array_equal(np.sort(index.order), np.arange(n)):
        raise VerificationError(f"reachability order of {n} is not a permutation")
    for position in range(n):
        below = unpack_mask(index._desc[position], n)[: position + 1]
        above = unpack_mask(index._anc[position], n)[position:]
        if below.any() or above.any():
            raise VerificationError(
                f"reachability row stored at {position} of {n} has bits on "
                "or across the diagonal: the order is not a linear extension"
            )
    adjacency = graph.adjacency()
    lengths = np.array([len(children) for children in adjacency], dtype=np.int64)
    targets = np.concatenate([np.zeros(0, dtype=np.int64), *adjacency])
    sources = np.repeat(np.arange(n), lengths)[np.argsort(targets, kind="stable")]
    ancestors = np.split(sources, np.cumsum(np.bincount(targets, minlength=n))[:-1])
    for vertex in range(n):
        for kind, row, mask, listed in (
            ("descendant", index.descendant_mask(vertex),
             graph.descendant_mask(vertex), adjacency[vertex]),
            ("ancestor", index.ancestor_mask(vertex),
             graph.ancestor_mask(vertex), ancestors[vertex]),
        ):
            if not np.array_equal(row, mask):
                raise VerificationError(
                    f"reachability {kind} row {vertex} of {n} differs from "
                    f"{kind}_mask at {np.flatnonzero(row != mask)[:5].tolist()}"
                )
            if not np.array_equal(np.flatnonzero(row), listed):
                raise VerificationError(
                    f"reachability {kind} row {vertex} of {n} differs from the "
                    "adjacency lists"
                )


# --------------------------------------------------------------------------- #
# Grouped-graph partition validity
# --------------------------------------------------------------------------- #


def check_grouped_partition(grouped: GroupedGraph) -> None:
    """Groups must partition the base vertices; bounds must be exact
    member-wise min/max; group dominance must follow Eqs. 5-6 from bounds."""
    base_size = len(grouped.base)
    seen: set[int] = set()
    for index, group in enumerate(grouped.grouping):
        if not group:
            raise VerificationError(f"group {index} is empty")
        for member in group:
            if not 0 <= member < base_size:
                raise VerificationError(
                    f"group {index} member {member} is not a base vertex"
                )
            if member in seen:
                raise VerificationError(
                    f"base vertex {member} appears in more than one group"
                )
            seen.add(member)
    if seen != set(range(base_size)):
        missing = sorted(set(range(base_size)) - seen)[:5]
        raise VerificationError(f"grouping misses base vertices {missing}")
    vectors = grouped.base.vectors
    for index, group in enumerate(grouped.grouping):
        member_rows = vectors[group]
        if not np.array_equal(grouped.lower_bounds[index], member_rows.min(axis=0)):
            raise VerificationError(f"group {index} lower bound is not the member min")
        if not np.array_equal(grouped.upper_bounds[index], member_rows.max(axis=0)):
            raise VerificationError(f"group {index} upper bound is not the member max")
    for u in range(len(grouped)):
        mask = grouped.descendant_mask(u)
        for v in range(len(grouped)):
            if u == v:
                continue
            expected = bool(
                (grouped.lower_bounds[u] >= grouped.upper_bounds[v]).all()
                and (grouped.lower_bounds[u] > grouped.upper_bounds[v]).any()
            )
            if bool(mask[v]) != expected:
                raise VerificationError(
                    f"group dominance ({u}, {v}) is {bool(mask[v])} but "
                    f"Eqs. 5-6 on the bounds say {expected}"
                )


# --------------------------------------------------------------------------- #
# Clustering vs union-find agreement
# --------------------------------------------------------------------------- #


def check_cluster_union_find(num_records: int, matches: Iterable[Pair]) -> None:
    """``clusters_from_matches`` must equal naive BFS connected components."""
    from ..core.clustering import clusters_from_matches

    matches = [canonical_pair(*pair) for pair in matches]
    produced = clusters_from_matches(num_records, matches)
    neighbors: dict[int, set[int]] = {v: set() for v in range(num_records)}
    for i, j in matches:
        neighbors[i].add(j)
        neighbors[j].add(i)
    seen: set[int] = set()
    expected: list[list[int]] = []
    for root in range(num_records):
        if root in seen:
            continue
        component = []
        queue = deque([root])
        seen.add(root)
        while queue:
            vertex = queue.popleft()
            component.append(vertex)
            for other in neighbors[vertex]:
                if other not in seen:
                    seen.add(other)
                    queue.append(other)
        expected.append(sorted(component))
    if sorted(map(tuple, produced)) != sorted(map(tuple, expected)):
        raise VerificationError(
            f"union-find clusters disagree with BFS components: "
            f"{len(produced)} vs {len(expected)} clusters"
        )


# --------------------------------------------------------------------------- #
# Coloring-state sanity
# --------------------------------------------------------------------------- #


def check_coloring_state(state: ColoringState) -> None:
    """Pinned flags, asked order, and color values must stay coherent."""
    colors = state.colors
    if colors.min() < 0 or colors.max() > 3:
        raise VerificationError(f"illegal color value in {np.unique(colors)}")
    for vertex in state.asked_order:
        if not state._pinned[vertex]:
            raise VerificationError(f"asked vertex {vertex} is not pinned")
        if colors[vertex] == 0:
            raise VerificationError(f"asked vertex {vertex} is uncolored")


# --------------------------------------------------------------------------- #
# Session coherence + the VerifyingSession sanitizer
# --------------------------------------------------------------------------- #


def check_session_coherence(session: CrowdSession) -> None:
    """The pinned billing semantics of :class:`CrowdSession` must hold.

    * ``iterations == len(batch_sizes)`` and every batch is non-empty;
    * distinct questions never exceed the total questions submitted;
    * ``hits == ceil(questions / pairs_per_hit) * assignments`` (whole-run
      pooled, ceiling once, zero when nothing was asked);
    * ``cost_cents == hits * cents_per_hit``.
    """
    if session.iterations != len(session.batch_sizes):
        raise VerificationError(
            f"iterations ({session.iterations}) != number of batches "
            f"({len(session.batch_sizes)})"
        )
    if any(size < 1 for size in session.batch_sizes):
        raise VerificationError("a recorded batch has size < 1")
    questions = session.questions_asked
    if questions > sum(session.batch_sizes):
        raise VerificationError(
            f"distinct questions ({questions}) exceed submitted questions "
            f"({sum(session.batch_sizes)})"
        )
    if questions == 0:
        expected_hits = 0
    else:
        expected_hits = (
            math.ceil(questions / session.pairs_per_hit) * session.crowd.assignments
        )
    if session.hits != expected_hits:
        raise VerificationError(
            f"billing drifted: hits = {session.hits}, but "
            f"ceil({questions} / {session.pairs_per_hit}) * "
            f"{session.crowd.assignments} = {expected_hits}"
        )
    expected_cost = expected_hits * session.cents_per_hit
    if session.cost_cents != expected_cost:
        raise VerificationError(
            f"cost_cents = {session.cost_cents}, expected {expected_cost}"
        )


def _outcomes_equal(a: VoteOutcome, b: VoteOutcome) -> bool:
    return (
        a.answer == b.answer
        and a.confidence == b.confidence
        and tuple(a.votes) == tuple(b.votes)
    )


class VerifyingSession:
    """Opt-in sanitizer: a crowd session that audits itself at every answer.

    Wraps any :class:`CrowdSession`-compatible object (including the
    engine's ``EngineSession``) and re-validates, after *every* batch:

    * **billing coherence** — the pinned pooled-ceiling formula of
      :func:`check_session_coherence`;
    * **answer-cache coherence** — re-asking a pair must return the exact
      same :class:`VoteOutcome` the session returned the first time, and
      must not grow ``questions_asked``;
    * **monotonic ledgers** — ``questions_asked`` and ``iterations`` never
      decrease, and each batch raises ``iterations`` by exactly one;
    * **answer shape** — every asked pair is answered, confidences live in
      [0, 1].

    Violations raise :class:`~repro.exceptions.VerificationError`
    immediately, at the first corrupted answer, instead of surfacing as a
    mysteriously wrong F1 three stages later.  The wrapper is a structural
    drop-in: attribute access falls through to the inner session, so
    selectors, resolvers, and the engine treat it as the session itself.
    """

    def __init__(self, inner: CrowdSession) -> None:
        self._inner = inner
        self._answers_seen: dict[Pair, VoteOutcome] = {}

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    # -- the audited protocol ------------------------------------------- #

    def ask(self, pair: Pair) -> VoteOutcome:
        return self.ask_batch([pair])[canonical_pair(*pair)]

    def ask_batch(self, pairs: Iterable[Pair]) -> dict[Pair, VoteOutcome]:
        batch = [canonical_pair(*pair) for pair in pairs]
        questions_before = self._inner.questions_asked
        iterations_before = self._inner.iterations
        new_pairs = {
            pair for pair in batch if pair not in self._inner.asked_pairs
        }
        answers = self._inner.ask_batch(batch)
        if batch:
            if self._inner.iterations != iterations_before + 1:
                raise VerificationError(
                    f"a non-empty batch moved iterations from "
                    f"{iterations_before} to {self._inner.iterations}"
                )
        elif answers:
            raise VerificationError("an empty batch produced answers")
        # Engine sessions may settle some new pairs via the machine fallback
        # (unbilled, uncounted), so the distinct-question ledger may grow by
        # *at most* the new pairs — and must never shrink or overshoot.
        ceiling = questions_before + len(new_pairs)
        if not questions_before <= self._inner.questions_asked <= ceiling:
            raise VerificationError(
                f"questions_asked moved {questions_before} -> "
                f"{self._inner.questions_asked}; batch added {len(new_pairs)} "
                f"new distinct pairs so at most {ceiling} was expected"
            )
        for pair in batch:
            outcome = answers.get(pair)
            if outcome is None:
                raise VerificationError(f"asked pair {pair} received no answer")
            if not 0.0 <= outcome.confidence <= 1.0:
                raise VerificationError(
                    f"pair {pair} answered with confidence {outcome.confidence}"
                )
            previous = self._answers_seen.get(pair)
            if previous is None:
                self._answers_seen[pair] = outcome
            elif not _outcomes_equal(previous, outcome):
                raise VerificationError(
                    f"answer-cache incoherence: pair {pair} first answered "
                    f"{previous}, re-answered {outcome}"
                )
        check_session_coherence(self._inner)
        return answers
