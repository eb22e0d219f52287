"""The topological-sorting selector — the paper's **Power** (§5.3.2, Alg. 4).

Each iteration topologically sorts the uncolored vertices into Kahn level
sets ``L_1 .. L_|L|`` and asks the middle level in one parallel batch.  The
middle is where boundary vertices concentrate: top levels are
high-similarity (likely GREEN, so asking them deduces little downward) and
bottom levels likely RED.  Unlike Multi-Path, the asked vertices are
mutually independent (same level, hence incomparable), so no question can
have made another redundant.

An optional ``layer_position`` knob supports the ablation bench: 0.0 asks
the first layer, 1.0 the last, 0.5 (default) the paper's middle layer.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigurationError
from ..graph.coloring import ColoringState
from ..graph.dag import OrderedGraph
from ..graph.topo import topological_layers
from .base import QuestionSelector
from .error_tolerant import ErrorPolicy


class TopoSortSelector(QuestionSelector):
    """Parallel selector asking one topological level per iteration."""

    name = "power"

    def __init__(
        self,
        error_policy: ErrorPolicy | None = None,
        seed: int = 0,
        layer_position: float = 0.5,
    ) -> None:
        super().__init__(error_policy=error_policy, seed=seed)
        if not 0.0 <= layer_position <= 1.0:
            raise ConfigurationError(
                f"layer_position must be in [0, 1], got {layer_position}"
            )
        self.layer_position = layer_position

    def select(
        self, graph: OrderedGraph, state: ColoringState, rng: np.random.Generator
    ) -> list[int]:
        layers = topological_layers(graph, state.uncolored_mask())
        # ceil(|L| * position) clamped to a valid 1-based level, matching the
        # paper's L_{ceil(|L|/2)} at the default position 0.5.
        level = min(
            len(layers) - 1,
            max(0, int(np.ceil(len(layers) * self.layer_position)) - 1),
        )
        return [int(vertex) for vertex in layers[level]]
