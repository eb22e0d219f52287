"""Minimal disjoint path decomposition of the dominance DAG (§5.2).

The paper turns the pair graph into a bipartite graph (each vertex appears
on both sides; dominance edges cross sides), computes a maximum matching,
and reads off a *minimal* set of vertex-disjoint paths covering all vertices
— Fulkerson's proof of Dilworth's theorem (paper Theorem 2): with ``J``
matched edges the cover has ``|V| - J`` paths, so a maximum matching yields
the minimum path cover.

:class:`IncrementalPathCover` computes that cover with our own
Hopcroft–Karp phases (``O(E sqrt(V))``), warm-started across the selection
loop's rounds: it scales the per-round work with *what changed* — colored
vertices are vertex deletions, the phase-1 greedy matching is repaired
locally instead of recomputed, and every row comes from the public-id
methods of a :class:`~repro.graph.reachability.ReachabilityIndex`, which
hands the engine out (``index.path_cover()``).  Its covers are
byte-identical to the from-scratch ``minimum_path_cover`` over
:func:`restricted_adjacency`, which ``repro.verify.relation`` keeps as the
reference (and the battery cross-checks against networkx).
:func:`greedy_path_cover` is the cheap non-optimal cover of the
path-decomposition ablation.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

import numpy as np

from ..exceptions import GraphError
from ..obs import instrument as obs_instrument

_INFINITY = float("inf")


def restricted_adjacency(relation, active: np.ndarray) -> tuple[list[list[int]], np.ndarray]:
    """Induce a sub-DAG on the *active* vertices, with compact relabeling.

    Reads the descendant row of each active vertex from *relation* (a
    graph's ``reachability``).

    Returns:
        ``(sub_adjacency, original_ids)`` where ``original_ids[k]`` maps the
        compact vertex ``k`` back to the original graph.
    """
    original_ids = np.flatnonzero(active)
    relabel = -np.ones(len(active), dtype=np.int64)
    relabel[original_ids] = np.arange(len(original_ids))
    sub_adjacency: list[list[int]] = []
    for original in original_ids:
        kept = relabel[relation.descendants(int(original))]
        sub_adjacency.append([int(c) for c in kept if c >= 0])
    return sub_adjacency, original_ids


def greedy_path_cover(adjacency: Sequence[Sequence[int]]) -> list[list[int]]:
    """A cheap non-optimal path cover: repeatedly peel a longest-ish chain.

    Used by the path-decomposition ablation bench to quantify what the
    maximum-matching machinery buys over a naive alternative.
    """
    n = len(adjacency)
    remaining = set(range(n))
    # Longest-path DP over the DAG (children order), computed once.
    indegree = [0] * n
    for u in range(n):
        for v in adjacency[u]:
            indegree[v] += 1
    order: list[int] = [u for u in range(n) if indegree[u] == 0]
    queue = deque(order)
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            indegree[v] -= 1
            if indegree[v] == 0:
                order.append(v)
                queue.append(v)
    if len(order) != n:
        raise GraphError("greedy_path_cover requires a DAG")
    paths: list[list[int]] = []
    while remaining:
        # Height = longest chain downward within `remaining`.
        height = {u: 1 for u in remaining}
        for u in reversed(order):
            if u not in remaining:
                continue
            for v in adjacency[u]:
                if v in remaining and height[v] + 1 > height[u]:
                    height[u] = height[v] + 1
        start = max(remaining, key=lambda u: (height[u], -u))
        path = [start]
        on_path = {start}
        current = start
        while True:
            next_vertex = None
            for v in adjacency[current]:
                if v in remaining and v != current and v not in on_path:
                    if height[v] == height[current] - 1:
                        next_vertex = v
                        break
            if next_vertex is None:
                break
            path.append(next_vertex)
            on_path.add(next_vertex)
            current = next_vertex
        for vertex in path:
            remaining.discard(vertex)
        paths.append(path)
    return paths


# --------------------------------------------------------------------------- #
# Incremental (warm-start) path covers
# --------------------------------------------------------------------------- #


class IncrementalPathCover:
    """Warm-start minimum path covers over a monotonically shrinking DAG.

    The selection loop colors vertices every round and recomputes the
    Dilworth decomposition of whatever stays uncolored.  The from-scratch
    reference (``repro.verify.relation.minimum_path_cover``) rebuilds compact
    adjacency lists and reruns Hopcroft-Karp each time; this engine instead
    treats coloring as *vertex deletion* and keeps two pieces of state
    between rounds:

    * the active-vertex mask, so restricting a row of the index to the
      live sub-DAG is one boolean ``AND``;
    * the phase-1 matching — Hopcroft-Karp's first phase from an empty
      matching is exactly first-fit greedy in (vertex, neighbor) order — which
      deletions perturb only locally.  ``_deletion_restart`` finds the first
      left vertex whose greedy decision can change (holders of deleted
      rights, plus the earliest vertex each freed right attracts) and re-runs
      the greedy scan from there; everything before it is provably unchanged.

    From the repaired greedy matching the remaining Hopcroft-Karp phases run
    with a vectorized layered BFS and an explicit-stack DFS that visits
    neighbors in ascending vertex order — the same order the reference sees
    after compact relabeling (which is monotone), so matchings, heads, and
    paths all correspond 1:1 and the returned cover is **byte-identical** to
    ``minimum_path_cover(restricted_adjacency(relation, active))`` mapped
    back to original ids.  ``repro.verify``'s ``check_selection_incremental``
    and a seeded stale-matching mutant enforce exactly that.

    Args:
        index: packed reachability index of the *full* graph.  Each row's
            descendant ids are read from it once, on first use, and kept
            for the hot neighbor restrictions (one fancy-index per row
            beats unpacking ``n`` bits when rows are sparse).
    """

    def __init__(self, index) -> None:
        self._index = index
        n = index.num_vertices
        self._n = n
        self._adj: list[np.ndarray | None] = [None] * n
        self._active: np.ndarray | None = None  # bool mask, set on first cover
        self._greedy_left = np.full(n, -1, dtype=np.int64)
        self._greedy_right = np.full(n, -1, dtype=np.int64)
        self._match_left = np.full(n, -1, dtype=np.int64)
        self._match_right = np.full(n, -1, dtype=np.int64)
        self._distance = np.full(n, _INFINITY)
        self.stats = {
            "covers": 0,
            "scratch_builds": 0,
            "suffix_lefts": 0,
            "deleted_vertices": 0,
        }

    @property
    def index(self):
        return self._index

    # ------------------------------------------------------------------ #
    # Greedy (phase-1) matching maintenance
    # ------------------------------------------------------------------ #

    def _children(self, u: int) -> np.ndarray:
        """Full-graph descendant ids of *u*, ascending (lazily unpacked)."""
        row = self._adj[u]
        if row is None:
            row = self._index.descendants(u)
            self._adj[u] = row
        return row

    def _greedy_scan(self, lefts: np.ndarray, unclaimed: np.ndarray) -> None:
        """First-fit matching for *lefts* (ascending) over unclaimed rights.

        *unclaimed* is a boolean mask of active rights not yet claimed; the
        first (lowest) unclaimed child of each left is taken, which is the
        choice the reference Hopcroft-Karp phase 1 makes from an empty
        matching.
        """
        gl, gr = self._greedy_left, self._greedy_right
        for u in lefts:
            u = int(u)
            row = self._children(u)
            candidates = row[unclaimed[row]]
            if candidates.size:
                v = int(candidates[0])
                gl[u] = v
                gr[v] = u
                unclaimed[v] = False

    def _release_deleted(self, deleted: np.ndarray) -> tuple[int, list[int]]:
        """Unlink deleted vertices from the greedy matching.

        Returns ``(restart, freed_rights)``: the smallest still-active left
        whose match was severed, and the still-active rights that lost their
        holder (each may attract an earlier left than *restart*).
        """
        restart = self._n
        freed: list[int] = []
        gl, gr = self._greedy_left, self._greedy_right
        for w in deleted:
            w = int(w)
            r = int(gl[w])
            if r != -1:
                gl[w] = -1
                gr[r] = -1
                if self._active[r]:
                    freed.append(r)
            u = int(gr[w])
            if u != -1:
                gr[w] = -1
                gl[u] = -1
                if self._active[u] and u < restart:
                    restart = u
        return restart, freed

    def _deletion_restart(self, deleted: np.ndarray) -> int:
        """First left vertex whose fresh-greedy decision can differ."""
        restart, freed = self._release_deleted(deleted)
        gl = self._greedy_left
        for r in freed:
            candidates = self._index.ancestors(r)
            candidates = candidates[self._active[candidates]]
            for u in candidates:
                u = int(u)
                if u >= restart:
                    break  # cannot lower the minimum further
                match = int(gl[u])
                if match == -1 or match > r:
                    restart = u
                    break
        return restart

    def _greedy_suffix(self, restart: int) -> None:
        """Re-run the greedy scan from *restart*; the prefix is unchanged."""
        if restart >= self._n:
            return
        gl, gr = self._greedy_left, self._greedy_right
        active_lefts = np.flatnonzero(self._active)
        suffix = active_lefts[active_lefts >= restart]
        for u in suffix:
            r = int(gl[u])
            if r != -1:
                gr[r] = -1
                gl[u] = -1
        unclaimed = self._active & (gr == -1)
        self.stats["suffix_lefts"] += int(suffix.size)
        self._greedy_scan(suffix, unclaimed)

    def _greedy_scratch(self) -> None:
        self._greedy_left.fill(-1)
        self._greedy_right.fill(-1)
        unclaimed = self._active.copy()
        self.stats["scratch_builds"] += 1
        self._greedy_scan(np.flatnonzero(self._active), unclaimed)

    # ------------------------------------------------------------------ #
    # Hopcroft-Karp phases 2+ on the index rows
    # ------------------------------------------------------------------ #

    def _cover_neighbors(self, u: int, cache: dict[int, list[int]]) -> list[int]:
        """Active descendants of *u* as a plain list, memoized per cover."""
        neighbors = cache.get(u)
        if neighbors is None:
            row = self._children(u)
            neighbors = row[self._active[row]].tolist()
            cache[u] = neighbors
        return neighbors

    def _bfs(self) -> bool:
        """Layered BFS: same distances and free-right discovery as the
        reference queue BFS (shortest alternating distances are unique)."""
        distance = self._distance
        distance[:] = _INFINITY
        frontier = np.flatnonzero(self._active & (self._match_left == -1))
        if frontier.size == 0:
            return False
        distance[frontier] = 0.0
        free_rights = self._active & (self._match_right == -1)
        visited = np.zeros(self._n, dtype=bool)
        found_free = False
        level = 0.0
        while frontier.size:
            reach = self._index.reached(frontier)
            reach = reach[self._active[reach]]
            if not found_free and free_rights[reach].any():
                found_free = True
            rights = reach[~visited[reach]]
            visited[rights] = True
            if rights.size == 0:
                break
            partners = self._match_right[rights]
            partners = partners[partners >= 0]
            partners = partners[np.isinf(distance[partners])]
            if partners.size == 0:
                break
            level += 1.0
            distance[partners] = level
            partners.sort()
            frontier = partners
        return found_free

    def _augment(
        self,
        root: int,
        distance: list[float],
        match_left: list[int],
        match_right: list[int],
        cache: dict[int, list[int]],
    ) -> bool:
        """Explicit-stack DFS, neighbor-order-identical to the reference.

        Operates on plain Python lists — the same data layout as the
        reference ``hopcroft_karp`` — because the DFS is scalar-access-heavy
        and per-element numpy indexing would dominate the phase.
        """
        frames: list[list] = [[root, iter(self._cover_neighbors(root, cache)), -1]]
        while frames:
            frame = frames[-1]
            u = frame[0]
            descended = False
            next_level = distance[u] + 1.0
            for v in frame[1]:
                partner = match_right[v]
                if partner == -1:
                    frame[2] = v
                    for node, _, picked in reversed(frames):
                        match_left[node] = picked
                        match_right[picked] = node
                    return True
                if distance[partner] == next_level:
                    frame[2] = v
                    frames.append(
                        [partner, iter(self._cover_neighbors(partner, cache)), -1]
                    )
                    descended = True
                    break
            if not descended:
                distance[u] = _INFINITY
                frames.pop()
        return False

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def cover(self, active_mask: np.ndarray) -> list[list[int]]:
        """Minimum path cover of the sub-DAG induced by *active_mask*.

        Paths are in original vertex ids, in the reference's head order.
        The active set must shrink monotonically across calls (colored
        vertices never return); a grown set raises :class:`GraphError`.
        Hopcroft-Karp's phases after the greedy one run inside a
        ``selection.augment`` span.
        """
        active_mask = np.ascontiguousarray(active_mask, dtype=bool)
        if active_mask.shape != (self._n,):
            raise GraphError(
                f"active mask has shape {active_mask.shape}; expected ({self._n},)"
            )
        self.stats["covers"] += 1
        if self._active is None:
            self._active = active_mask.copy()
            self._greedy_scratch()
        else:
            if np.any(active_mask & ~self._active):
                raise GraphError(
                    "IncrementalPathCover requires a shrinking active set; "
                    "build a fresh engine for a new run"
                )
            deleted = np.flatnonzero(self._active & ~active_mask)
            if deleted.size:
                self.stats["deleted_vertices"] += int(deleted.size)
                self._active = active_mask.copy()
                restart = self._deletion_restart(deleted)
                self._greedy_suffix(restart)
        np.copyto(self._match_left, self._greedy_left)
        np.copyto(self._match_right, self._greedy_right)
        # Phases 2+ run on list mirrors of the match/distance arrays (the
        # reference's data layout); the numpy arrays are re-synced before
        # each vectorized BFS.
        with obs_instrument.current().tracer.span("selection.augment"):
            match_left = self._match_left.tolist()
            match_right = self._match_right.tolist()
            cache: dict[int, list[int]] = {}
            while self._bfs():
                distance = self._distance.tolist()
                for u in np.flatnonzero(self._active & (self._match_left == -1)):
                    self._augment(int(u), distance, match_left, match_right, cache)
                self._match_left[:] = match_left
                self._match_right[:] = match_right
        return self._paths()

    def _paths(self) -> list[list[int]]:
        match_left, match_right = self._match_left, self._match_right
        paths: list[list[int]] = []
        seen = 0
        for head in np.flatnonzero(self._active & (match_right == -1)):
            current = int(head)
            path = [current]
            while match_left[current] != -1:
                current = int(match_left[current])
                path.append(current)
            seen += len(path)
            paths.append(path)
        active_count = int(np.count_nonzero(self._active))
        if seen != active_count:
            raise GraphError(
                f"incremental path cover covered {seen} of {active_count} "
                "active vertices; the warm-start matching is corrupt"
            )
        return paths
