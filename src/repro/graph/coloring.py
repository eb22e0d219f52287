"""The graph-coloring engine (paper §3.2 and §5.3's conflict handling).

Asking a vertex and receiving **Yes** colors it GREEN and gives every
ancestor a GREEN inference vote; **No** colors it RED and gives every
descendant a RED vote.  Crowd-answered vertices are *pinned* — their color
never changes — while inferred vertices take the majority of the votes they
have received, which is exactly how the paper resolves the conflicts that
parallel question batches can create ("we can use majority voting to vote
g's color").  Vote ties resolve to RED: treating an ambiguous pair as a
non-match favours precision, and a RED default never merges clusters.

The BLUE color is used by the error-tolerant layer (§6) for vertices whose
crowd answer had low confidence; BLUE vertices are pinned and excluded from
inference in both directions.
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np

from ..data.ground_truth import Pair
from ..exceptions import GraphError
from .dag import OrderedGraph


class Color(IntEnum):
    """Vertex colors: the paper's GREEN/RED plus the §6 BLUE."""

    UNCOLORED = 0
    GREEN = 1  # records refer to the same entity
    RED = 2  # records refer to different entities
    BLUE = 3  # low-confidence answer; decided later by the histogram step


class ColoringState:
    """Mutable coloring of an :class:`OrderedGraph` with inference voting.

    Attributes:
        graph: the graph being colored.
        colors: per-vertex :class:`Color` values (int8 array).
        asked_order: vertices in the order they were crowd-answered.
    """

    def __init__(self, graph: OrderedGraph) -> None:
        self.graph = graph
        n = len(graph)
        self.colors = np.full(n, Color.UNCOLORED, dtype=np.int8)
        self._pinned = np.zeros(n, dtype=bool)
        self._green_votes = np.zeros(n, dtype=np.int32)
        self._red_votes = np.zeros(n, dtype=np.int32)
        self.asked_order: list[int] = []

    # ------------------------------------------------------------------ #
    # Applying crowd answers
    # ------------------------------------------------------------------ #

    def apply_answer(self, vertex: int, answer: bool, propagate: bool = True) -> None:
        """Pin *vertex* to the crowd's answer and optionally propagate.

        Args:
            vertex: the asked vertex.
            answer: True = same entity (GREEN), False = different (RED).
            propagate: when True (the default coloring strategy), a GREEN
                answer votes every ancestor GREEN and a RED answer votes
                every descendant RED.  The error-tolerant algorithm passes
                False for low-confidence answers.
        """
        self.graph._check_vertex(vertex)
        self.asked_order.append(vertex)
        self.colors[vertex] = Color.GREEN if answer else Color.RED
        self._pinned[vertex] = True
        if not propagate:
            return
        # A built reachability index serves the same masks as one packed-row
        # fetch (byte-identical to the float broadcasts; verified by the
        # battery's incremental differentials).
        index = self.graph.reachability
        if answer:
            targets = (
                index.ancestor_mask(vertex)
                if index is not None
                else self.graph.ancestor_mask(vertex)
            )
            self._green_votes[targets] += 1
        else:
            targets = (
                index.descendant_mask(vertex)
                if index is not None
                else self.graph.descendant_mask(vertex)
            )
            self._red_votes[targets] += 1
        self._refresh(targets)

    def mark_blue(self, vertex: int) -> None:
        """Pin *vertex* BLUE (low-confidence answer; no inference either way)."""
        self.graph._check_vertex(vertex)
        self.asked_order.append(vertex)
        self.colors[vertex] = Color.BLUE
        self._pinned[vertex] = True

    def force_color(self, vertex: int, color: Color) -> None:
        """Pin a vertex to a color chosen outside the crowd loop.

        Used by the §6 histogram step to settle BLUE vertices.
        """
        self.graph._check_vertex(vertex)
        self.colors[vertex] = color
        self._pinned[vertex] = True

    def _refresh(self, mask: np.ndarray) -> None:
        """Recompute inferred colors where votes changed (pinned stay put)."""
        active = mask & ~self._pinned
        greens = self._green_votes[active] > self._red_votes[active]
        indexes = np.flatnonzero(active)
        self.colors[indexes] = np.where(greens, Color.GREEN, Color.RED)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def uncolored(self) -> np.ndarray:
        """Indices of vertices that are still uncolored."""
        return np.flatnonzero(self.colors == Color.UNCOLORED)

    def uncolored_mask(self) -> np.ndarray:
        return self.colors == Color.UNCOLORED

    def is_complete(self) -> bool:
        """True when no vertex is left uncolored (BLUE counts as colored)."""
        return not bool(np.any(self.colors == Color.UNCOLORED))

    def color_of(self, vertex: int) -> Color:
        return Color(int(self.colors[vertex]))

    @property
    def num_asked(self) -> int:
        return len(self.asked_order)

    @property
    def num_deduced(self) -> int:
        """Vertices colored GREEN/RED without being asked."""
        colored = np.isin(self.colors, (Color.GREEN, Color.RED))
        return int(np.count_nonzero(colored & ~self._pinned))

    def blue_vertices(self) -> np.ndarray:
        return np.flatnonzero(self.colors == Color.BLUE)

    def vertices_with(self, color: Color) -> np.ndarray:
        return np.flatnonzero(self.colors == color)

    def pair_labels(self) -> dict[Pair, bool]:
        """Match decision per record pair: GREEN members True, RED False.

        BLUE or uncolored vertices contribute nothing; callers decide those
        separately (the §6 histogram step) or treat them as non-matches.
        """
        graph = self.graph
        green = self.colors == Color.GREEN
        members = graph.member_vertices(np.flatnonzero(green | (self.colors == Color.RED)))
        member_is_green = np.zeros(len(graph.base), dtype=bool)
        member_is_green[graph.member_vertices(np.flatnonzero(green))] = True
        pairs = graph.base.pairs
        # Vertex order, members in order: the same items, in the same order,
        # as asking member_pairs vertex by vertex.
        return dict(
            zip(
                [pairs[member] for member in members.tolist()],
                member_is_green[members].tolist(),
            )
        )

    def validate_against(self, truth: dict[Pair, bool]) -> float:
        """Fraction of colored pairs whose color matches the ground truth."""
        labels = self.pair_labels()
        if not labels:
            raise GraphError("no pairs are colored yet")
        correct = sum(
            1 for pair, decision in labels.items() if truth.get(pair) == decision
        )
        return correct / len(labels)
