"""The SinglePath selector (paper §5.2, Algorithm 3).

Serial strategy with the paper's optimality guarantee: decompose the
uncolored sub-DAG into the minimal number of vertex-disjoint paths (via
maximum bipartite matching — Dilworth/Fulkerson, Theorem 2), then
binary-search the longest path for its GREEN/RED boundary, asking one
mid-vertex at a time (``O(B log |V|)`` questions overall).

Every answer still propagates over the whole graph, so vertices on other
paths are frequently colored for free; the decomposition is recomputed over
whatever remains once the current path is settled.
"""

from __future__ import annotations

import numpy as np

from ..graph.coloring import Color, ColoringState
from ..graph.dag import OrderedGraph
from ..graph.matching import (
    IncrementalPathCover,
    greedy_path_cover,
    minimum_path_cover,
    restricted_adjacency,
)
from .base import QuestionSelector


def cover_paths(
    selector: QuestionSelector, graph: OrderedGraph, active
) -> list[list[int]]:
    """Minimum path cover of the active sub-DAG, in original vertex ids.

    Routes through the selector's warm-started
    :class:`~repro.graph.matching.IncrementalPathCover` when the graph has a
    reachability index (byte-identical to the reference decomposition, just
    without rebuilding the matching from scratch every round); otherwise
    falls back to ``restricted_adjacency`` + ``minimum_path_cover``.
    """
    if graph.reachability is not None:
        if selector._engine is None or selector._engine.index is not graph.reachability:
            selector._engine = IncrementalPathCover(graph.reachability)
        return selector._engine.cover(active)
    sub_adjacency, original_ids = restricted_adjacency(graph.adjacency(), active)
    paths = minimum_path_cover(sub_adjacency)
    return [[int(original_ids[v]) for v in path] for path in paths]


class SinglePathSelector(QuestionSelector):
    """Serial selector: binary search on minimal disjoint paths.

    Args:
        cover: ``"matching"`` (default — the paper's maximum-matching
            Dilworth decomposition) or ``"greedy"`` (cheap chain peeling;
            exists for the path-decomposition ablation bench).
    """

    name = "single-path"

    def __init__(
        self,
        error_policy=None,
        seed: int = 0,
        cover: str = "matching",
    ) -> None:
        super().__init__(error_policy=error_policy, seed=seed)
        if cover not in ("matching", "greedy"):
            raise ValueError(f"cover must be 'matching' or 'greedy', got {cover!r}")
        self.cover = cover

    def reset(self) -> None:
        self._path: list[int] | None = None
        self._lo = 0
        self._hi = -1
        self._engine: IncrementalPathCover | None = None

    def _selection_stats(self) -> dict | None:
        return dict(self._engine.stats) if self._engine is not None else None

    def _recompute(self, graph: OrderedGraph, state: ColoringState) -> None:
        """Decompose the uncolored sub-DAG and adopt the longest path."""
        active = state.uncolored_mask()
        if self.cover == "matching":
            paths = cover_paths(self, graph, active)
            longest = max(paths, key=len)
            self._path = list(longest)
        else:
            sub_adjacency, original_ids = restricted_adjacency(
                graph.adjacency(), active
            )
            paths = greedy_path_cover(sub_adjacency)
            longest = max(paths, key=len)
            self._path = [int(original_ids[v]) for v in longest]
        self._lo = 0
        self._hi = len(self._path) - 1

    def select(
        self, graph: OrderedGraph, state: ColoringState, rng: np.random.Generator
    ) -> list[int]:
        while True:
            if self._path is None or self._lo > self._hi:
                self._recompute(graph, state)
            # Binary search for the boundary: vertices above it are GREEN,
            # below it RED.  Vertices colored meanwhile (by propagation from
            # other answers) steer the search without costing a question.
            while self._lo <= self._hi:
                mid = (self._lo + self._hi) // 2
                color = state.color_of(self._path[mid])
                if color == Color.UNCOLORED:
                    return [self._path[mid]]
                if color == Color.GREEN:
                    # The boundary lies strictly below the GREEN vertex.
                    self._lo = mid + 1
                elif color == Color.RED:
                    self._hi = mid - 1
                else:  # BLUE: no inference either way; exclude and continue.
                    self._hi = mid - 1
            self._path = None
            # The path is settled; loop to decompose what remains.
