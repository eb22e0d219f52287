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

The selection loop applies a whole crowd round at once
(:meth:`ColoringState.apply_round`): pin every answer in question order,
add the round's summed votes, refresh the vertices they touched.  That is
the same state as applying the answers one at a time, because votes are
counts (their sum does not depend on order), a pinned vertex keeps its
answer whenever its pin lands, and an unpinned vertex's color is the
majority of its cumulative votes at its last touch — after every vote of
the round in both schedules.  The battery's ``round-update`` step compares
every round against :class:`repro.verify.oracles.ReferenceColoring`, the
one-answer-at-a-time reference.
"""

from __future__ import annotations

from collections.abc import Sequence
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

    def apply_round(
        self, vertices: Sequence[int], answers: Sequence[bool | None]
    ) -> None:
        """Apply one crowd round's answers at once (see the module docstring).

        Every GREEN answer votes its ancestors and every RED answer its
        descendants, counted from the reachability index's rows when one
        is built and from the graph's masks otherwise.

        Args:
            vertices: the asked vertices, in question order.
            answers: per vertex, True (GREEN), False (RED), or None for a
                low-confidence answer (BLUE: pinned, no inference).
        """
        vertices = list(vertices)
        if len(vertices) != len(answers):
            raise GraphError(
                f"{len(vertices)} vertices but {len(answers)} answers in one round"
            )
        green: list[int] = []
        red: list[int] = []
        for vertex, answer in zip(vertices, answers):
            self.graph._check_vertex(vertex)
            if answer is None:
                self.colors[vertex] = Color.BLUE
            elif answer:
                self.colors[vertex] = Color.GREEN
                green.append(vertex)
            else:
                self.colors[vertex] = Color.RED
                red.append(vertex)
            self._pinned[vertex] = True
        self.asked_order.extend(vertices)
        if not (green or red):
            return
        green_votes, red_votes = self._inference_votes(green, red)
        self._green_votes += green_votes
        self._red_votes += red_votes
        touched = (green_votes > 0) | (red_votes > 0)
        if touched.any():
            self._refresh(touched)

    def _inference_votes(
        self, green: list[int], red: list[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Votes cast by a round's Yes (*green*) and No (*red*) answers."""
        index = self.graph.reachability
        if index is not None:
            return (
                index.row_counts(np.asarray(green, dtype=np.intp), ancestors=True),
                index.row_counts(np.asarray(red, dtype=np.intp), ancestors=False),
            )
        green_votes = np.zeros(len(self.graph), dtype=np.int32)
        red_votes = np.zeros(len(self.graph), dtype=np.int32)
        for vertex in green:
            green_votes += self.graph.ancestor_mask(vertex)
        for vertex in red:
            red_votes += self.graph.descendant_mask(vertex)
        return green_votes, red_votes

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
