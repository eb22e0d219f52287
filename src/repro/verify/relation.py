"""The reference dominance relation: every form production no longer reads.

Production graphs hold one relation, the packed
:class:`~repro.graph.reachability.ReachabilityIndex`
(``graph.reachability``).  This module keeps the other forms of the same
relation as the independent references the index and its readers are
diffed against:

* Eqs. 3-4 as scalar functions (:func:`dominates`,
  :func:`strictly_dominates`, :func:`comparable`) and as float-broadcast
  masks over a matrix (:func:`descendant_mask`, :func:`ancestor_mask`);
* the dominance tiles: one ``(B, n)`` block of rows at a time
  (``_dominance_tiles``), cut into children lists by
  :func:`blocked_dominance_lists`, next to the per-vertex edge set
  :func:`vectorized_edges`;
* the from-scratch Dilworth decomposition: Hopcroft-Karp
  (:func:`hopcroft_karp`) and :func:`minimum_path_cover`, which the
  warm-start :class:`~repro.graph.matching.IncrementalPathCover` must
  reproduce path for path;
* :class:`ReferenceRelation`, the lists and masks behind the index's read
  interface, so any selector runs on it unchanged.  Its methods are the
  reference paths: mask sums per answer (``row_counts``), Kahn peeling of
  the lists (``kahn_layers``) and a per-call cover
  (:class:`ReferencePathCover`).

:func:`decline_reachability` gives a fresh production graph the reference
relation built from its tiles; the naive twins in :mod:`.oracles` get one
built from their own Python comparisons.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterator, Sequence

import numpy as np

from ..exceptions import GraphError, VerificationError
from ..graph.construction import DEFAULT_BLOCK_SIZE, Edge, _joint_row_ranks, _validate
from ..graph.dag import OrderedGraph
from ..graph.matching import restricted_adjacency

# --------------------------------------------------------------------------- #
# Eqs. 3-4: scalar relations and float-broadcast masks
# --------------------------------------------------------------------------- #


def dominates(u: np.ndarray, v: np.ndarray) -> bool:
    """True when ``u >= v`` componentwise (weak dominance, Eq. 3)."""
    return bool(np.all(u >= v))


def strictly_dominates(u: np.ndarray, v: np.ndarray) -> bool:
    """True when ``u >= v`` componentwise with some strict component (Eq. 4)."""
    return bool(np.all(u >= v) and np.any(u > v))


def comparable(u: np.ndarray, v: np.ndarray) -> bool:
    """True when the two vectors are ordered either way under strict dominance."""
    return strictly_dominates(u, v) or strictly_dominates(v, u)


def descendant_mask(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Boolean mask over rows of *matrix* strictly dominated by *vector*.

    Because strict dominance is transitive, this mask is both the children
    and the descendants of the vertex: the set whose answers a RED vertex
    determines (§3.2).
    """
    return np.logical_and((matrix <= vector).all(axis=1), (matrix < vector).any(axis=1))


def ancestor_mask(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Boolean mask over rows of *matrix* strictly dominating *vector*.

    The set whose answers a GREEN vertex determines (§3.2).
    """
    return np.logical_and((matrix >= vector).all(axis=1), (matrix > vector).any(axis=1))


# --------------------------------------------------------------------------- #
# Dominance tiles and the lists and edges cut from them
# --------------------------------------------------------------------------- #


def vectorized_edges(vectors: np.ndarray) -> set[Edge]:
    """Strict-dominance edges, one broadcast per vertex."""
    vectors = _validate(vectors)
    edges: set[Edge] = set()
    for vertex in range(vectors.shape[0]):
        for child in np.flatnonzero(descendant_mask(vectors, vectors[vertex])):
            edges.add((vertex, int(child)))
    return edges


def _dominance_tiles(
    dominant: np.ndarray,
    dominated: np.ndarray,
    block_size: int = DEFAULT_BLOCK_SIZE,
    exclude_diagonal: bool = True,
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(start, tile)`` for consecutive row blocks: the one tile loop.

    ``tile[i, j]`` is True iff ``dominant[start + i] >= dominated[j]`` on
    every attribute and ``>`` on at least one: ``O(B * n)`` comparisons per
    tile.  Given ``>=`` everywhere, ``>`` somewhere holds exactly when the
    two rows differ, so one comparison of joint row ranks replaces the
    per-attribute ``>`` passes.  Each attribute is read as a contiguous row
    of the transposed operands, and the tiles reuse two buffers, so a tile
    is only valid until the next one is drawn.  The index build draws no
    tiles, so the lists cut from them are an independent reference for it.
    """
    dominant = _validate(dominant)
    dominated = _validate(dominated)
    if dominant.shape != dominated.shape:
        raise GraphError(
            f"dominant/dominated shapes differ: {dominant.shape} vs {dominated.shape}"
        )
    if block_size < 1:
        raise GraphError(f"block_size must be >= 1, got {block_size}")
    n, m = dominant.shape
    rows_by_attribute = np.ascontiguousarray(dominant.T)
    columns_by_attribute = np.ascontiguousarray(dominated.T)
    row_ranks, column_ranks = _joint_row_ranks(dominant, dominated)
    height = min(block_size, n)
    buffers = np.empty((2, height * n), dtype=bool)
    for start in range(0, n, block_size):
        stop = min(start + block_size, n)
        shape = (stop - start, n)
        all_ge, compared = (buffer[: shape[0] * shape[1]].reshape(shape) for buffer in buffers)
        all_ge.fill(True)
        for k in range(m):
            block = rows_by_attribute[k, start:stop, None]
            all_ge &= np.greater_equal(block, columns_by_attribute[k], out=compared)
        all_ge &= np.not_equal(row_ranks[start:stop, None], column_ranks, out=compared)
        if exclude_diagonal:
            all_ge[np.arange(stop - start), np.arange(start, stop)] = False
        yield start, all_ge


def blocked_dominance_lists(
    dominant: np.ndarray,
    dominated: np.ndarray,
    block_size: int = DEFAULT_BLOCK_SIZE,
    exclude_diagonal: bool = True,
) -> list[np.ndarray]:
    """Children lists of the strict-dominance relation, cut from the tiles.

    ``result[u]`` holds, ascending, every ``v`` with ``dominant[u] >=
    dominated[v]`` on all attributes and ``>`` on at least one: the form
    shared by the pair graph (both operands the similarity matrix) and the
    grouped graph (group lower bounds against upper bounds, Eqs. 5-6).

    Args:
        dominant / dominated: ``(n, m)`` float arrays, row-aligned.
        block_size: tile height (rows of *dominant* per iteration).
        exclude_diagonal: drop ``u == v`` (self-dominance of a degenerate
            single-point group); pair graphs never produce it because
            strict dominance already excludes equal rows.
    """
    children: list[np.ndarray] = []
    for _, tile in _dominance_tiles(dominant, dominated, block_size, exclude_diagonal):
        children.extend(map(np.flatnonzero, tile))
    return children


# --------------------------------------------------------------------------- #
# From-scratch Dilworth decomposition (§5.2, Theorem 2)
# --------------------------------------------------------------------------- #

_INFINITY = float("inf")


def hopcroft_karp(
    adjacency: Sequence[Sequence[int]], num_right: int | None = None
) -> tuple[list[int], list[int]]:
    """Maximum matching in a bipartite graph given left-side adjacency.

    Args:
        adjacency: ``adjacency[u]`` lists the right vertices adjacent to left
            vertex ``u``.
        num_right: number of right vertices; inferred from the edges when
            omitted.

    Returns:
        ``(match_left, match_right)`` where ``match_left[u]`` is the right
        partner of ``u`` (or -1) and vice versa.
    """
    num_left = len(adjacency)
    if num_right is None:
        num_right = 0
        for neighbors in adjacency:
            for v in neighbors:
                if v + 1 > num_right:
                    num_right = v + 1
    match_left = [-1] * num_left
    match_right = [-1] * num_right
    distance = [0.0] * num_left

    def bfs() -> bool:
        queue: deque[int] = deque()
        for u in range(num_left):
            if match_left[u] == -1:
                distance[u] = 0.0
                queue.append(u)
            else:
                distance[u] = _INFINITY
        found_free = False
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                partner = match_right[v]
                if partner == -1:
                    found_free = True
                elif distance[partner] == _INFINITY:
                    distance[partner] = distance[u] + 1
                    queue.append(partner)
        return found_free

    def dfs(root: int) -> bool:
        # Explicit-stack traversal of the layered graph, visiting neighbors
        # in exactly the order the recursive formulation would: each frame is
        # ``[left vertex, neighbor iterator, edge currently being tried]``.
        # On success the whole stack is one augmenting path; every frame's
        # pending edge becomes a matched edge.
        frames: list[list] = [[root, iter(adjacency[root]), -1]]
        while frames:
            frame = frames[-1]
            u = frame[0]
            descended = False
            for v in frame[1]:
                partner = match_right[v]
                if partner == -1:
                    frame[2] = v
                    for node, _, picked in reversed(frames):
                        match_left[node] = picked
                        match_right[picked] = node
                    return True
                if distance[partner] == distance[u] + 1:
                    frame[2] = v
                    frames.append([partner, iter(adjacency[partner]), -1])
                    descended = True
                    break
            if not descended:
                distance[u] = _INFINITY
                frames.pop()
        return False

    while bfs():
        for u in range(num_left):
            if match_left[u] == -1:
                dfs(u)
    return match_left, match_right


def minimum_path_cover(adjacency: Sequence[Sequence[int]]) -> list[list[int]]:
    """Minimal vertex-disjoint path cover of a DAG (paper Theorem 2).

    Args:
        adjacency: DAG children lists.  For the Dilworth guarantee ("size
            exactly B, the width of the order") the input must be
            transitively closed, which the dominance relation is.

    Returns:
        Paths as vertex lists ordered source → sink (dominating → dominated),
        pairwise disjoint and jointly covering every vertex.
    """
    n = len(adjacency)
    match_left, match_right = hopcroft_karp(adjacency, num_right=n)
    heads = [v for v in range(n) if match_right[v] == -1]
    paths: list[list[int]] = []
    seen = 0
    for head in heads:
        path = [head]
        current = head
        while match_left[current] != -1:
            current = match_left[current]
            path.append(current)
        seen += len(path)
        paths.append(path)
    if seen != n:
        raise GraphError(
            f"path cover covered {seen} of {n} vertices; the matching is corrupt"
        )
    return paths


# --------------------------------------------------------------------------- #
# The reference relation behind the index's read interface
# --------------------------------------------------------------------------- #


Mask = Callable[[int], np.ndarray]


class ReferenceRelation:
    """Children lists and per-vertex masks with the index's read interface.

    Args:
        lists: ``lists[v]``, the ids *v* strictly dominates, ascending.
        descendants_of / ancestors_of: the boolean masks of one vertex's
            descendants and ancestors, computed on every call.
    """

    def __init__(self, lists: list[np.ndarray], descendants_of: Mask, ancestors_of: Mask) -> None:
        self.lists = lists
        self.num_vertices = len(lists)
        self._descendants_of = descendants_of
        self._ancestors_of = ancestors_of
        self._parents: list[np.ndarray] | None = None

    @classmethod
    def from_operands(cls, dominant: np.ndarray, dominated: np.ndarray) -> "ReferenceRelation":
        """A production graph's relation: tile lists and broadcast masks."""
        dominant = _validate(dominant)
        dominated = _validate(dominated)

        def descendants_of(vertex: int) -> np.ndarray:
            mask = descendant_mask(dominated, dominant[vertex])
            mask[vertex] = False
            return mask

        def ancestors_of(vertex: int) -> np.ndarray:
            mask = ancestor_mask(dominant, dominated[vertex])
            mask[vertex] = False
            return mask

        lists = blocked_dominance_lists(dominant, dominated)
        return cls(lists, descendants_of, ancestors_of)

    @classmethod
    def from_masks(cls, num_vertices: int, descendants_of: Mask, ancestors_of: Mask) -> "ReferenceRelation":
        """A relation whose lists are its descendant masks, vertex by vertex."""
        lists = [np.flatnonzero(descendants_of(v)) for v in range(num_vertices)]
        return cls(lists, descendants_of, ancestors_of)

    def _check(self, vertex: int) -> int:
        if not 0 <= vertex < self.num_vertices:
            raise GraphError(f"vertex {vertex} out of range [0, {self.num_vertices})")
        return vertex

    def descendant_mask(self, vertex: int) -> np.ndarray:
        return self._descendants_of(self._check(vertex))

    def ancestor_mask(self, vertex: int) -> np.ndarray:
        return self._ancestors_of(self._check(vertex))

    def descendants(self, vertex: int) -> np.ndarray:
        return self.lists[self._check(vertex)]

    def ancestors(self, vertex: int) -> np.ndarray:
        """The transposed lists, built on first use."""
        if self._parents is None:
            parents: list[list[int]] = [[] for _ in range(self.num_vertices)]
            for u, children in enumerate(self.lists):
                for v in children.tolist():
                    parents[v].append(u)
            self._parents = [np.array(row, dtype=np.int64) for row in parents]
        return self._parents[self._check(vertex)]

    def reached(self, vertices) -> np.ndarray:
        rows = [self.descendants(int(v)) for v in np.asarray(vertices).tolist()]
        return np.unique(np.concatenate([np.zeros(0, dtype=np.int64), *rows]))

    def row_counts(self, vertices, ancestors: bool) -> np.ndarray:
        """Masks summed per answer: the reference vote count."""
        mask = self.ancestor_mask if ancestors else self.descendant_mask
        counts = np.zeros(self.num_vertices, dtype=np.int32)
        for vertex in np.asarray(vertices, dtype=np.int64).tolist():
            counts += mask(vertex)
        return counts

    def kahn_layers(self, active: np.ndarray) -> list[np.ndarray]:
        """Kahn level sets of the *active* sub-DAG by literal peeling."""
        children = [row.tolist() for row in self.lists]
        remaining = set(np.flatnonzero(active).tolist())
        indegree = dict.fromkeys(remaining, 0)
        for u in remaining:
            for v in children[u]:
                if v in remaining:
                    indegree[v] += 1
        layers: list[np.ndarray] = []
        while remaining:
            level = sorted(v for v in remaining if indegree[v] == 0)
            if not level:
                raise VerificationError("Kahn peeling stalled: the sub-DAG has a cycle")
            layers.append(np.array(level, dtype=np.int64))
            for u in level:
                remaining.discard(u)
                for v in children[u]:
                    if v in remaining:
                        indegree[v] -= 1
        return layers

    def path_cover(self) -> "ReferencePathCover":
        return ReferencePathCover(self)


class ReferencePathCover:
    """A minimum path cover computed from scratch on every call.

    ``minimum_path_cover(restricted_adjacency(relation, active))`` mapped
    back to vertex ids: the decomposition
    :class:`~repro.graph.matching.IncrementalPathCover` must equal.  Its
    stats count the covers, every one a scratch build.
    """

    def __init__(self, relation: ReferenceRelation) -> None:
        self.index = relation
        self.stats = {"covers": 0, "scratch_builds": 0, "suffix_lefts": 0, "deleted_vertices": 0}

    def cover(self, active: np.ndarray) -> list[list[int]]:
        self.stats["covers"] += 1
        self.stats["scratch_builds"] += 1
        sub_adjacency, original_ids = restricted_adjacency(self.index, active)
        return [
            [int(original_ids[v]) for v in path]
            for path in minimum_path_cover(sub_adjacency)
        ]


def reference_relation(graph: OrderedGraph) -> ReferenceRelation:
    """The reference relation of *graph*, independent of its index.

    A graph that already holds one (a naive twin, or a graph passed
    through :func:`decline_reachability`) gives its own; any other graph
    gets a fresh one from its dominance operands.
    """
    from .oracles import NaiveGroupedGraph, NaivePairGraph

    if isinstance(graph, (NaivePairGraph, NaiveGroupedGraph)):
        return graph.reachability
    relation = graph.__dict__.get("reachability")
    if isinstance(relation, ReferenceRelation):
        return relation
    return ReferenceRelation.from_operands(*graph._dominance_operands())


def decline_reachability(graph: OrderedGraph) -> OrderedGraph:
    """Give a fresh *graph* the reference relation instead of the index.

    The tile lists are built here, so a selector run on the graph reads
    them prebuilt: mask sums per answer, Kahn peeling of the lists and a
    from-scratch path cover every round.  The differential checks and the
    selection benchmark reach the reference paths this way; production
    code has no switch for them.
    """
    if "reachability" in graph.__dict__:
        raise ValueError("the graph already holds a reachability index")
    graph.reachability = reference_relation(graph)
    return graph

