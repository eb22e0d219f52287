"""The Multi-Path parallel selector (paper §5.3.1, Algorithm 7).

Each iteration decomposes the uncolored sub-DAG into the minimal set of
vertex-disjoint paths and asks the mid-vertex of *every* path in one batch.
Conflicting inferences across paths are resolved by the coloring engine's
majority voting, exactly as §5.3.1 prescribes.
"""

from __future__ import annotations

import numpy as np

from ..graph.coloring import ColoringState
from ..graph.dag import OrderedGraph
from .base import QuestionSelector
from .single_path import cover_paths


class MultiPathSelector(QuestionSelector):
    """Parallel selector: ask all path mid-vertices per iteration."""

    name = "multi-path"

    def reset(self) -> None:
        self._engine = None

    def _selection_stats(self) -> dict | None:
        return dict(self._engine.stats) if self._engine is not None else None

    def select(
        self, graph: OrderedGraph, state: ColoringState, rng: np.random.Generator
    ) -> list[int]:
        paths = cover_paths(self, graph, state.uncolored_mask())
        mids = {path[len(path) // 2] for path in paths}
        return sorted(mids)
