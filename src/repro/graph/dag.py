"""Graph model of the partial order (paper Definition 2).

:class:`OrderedGraph` is the abstract vertex-set-with-dominance interface
shared by the per-pair graph (:class:`PairGraph`) and the grouped graph
(:mod:`repro.graph.grouped_graph`).  Question-selection algorithms and the
coloring engine are written against this interface, so they run unchanged on
grouped and non-grouped graphs — exactly how the paper uses them.

Dominance queries are vectorised: instead of materialising the O(|V|^2) edge
set, ``descendants(v)`` broadcasts one comparison over the similarity matrix.
Because strict dominance is transitive, the resulting edge relation is its
own transitive closure.  The selection loop reads it from a packed
reachability index (:meth:`OrderedGraph.build_reachability`); explicit
adjacency lists are built only on demand (:meth:`OrderedGraph.adjacency`),
cut from the dominance tiles of :mod:`repro.graph.construction` when a
subclass exposes its dominance operands, else by the per-vertex reference
loop.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence

import numpy as np

from ..data.ground_truth import Pair
from ..exceptions import GraphError
from .partial_order import ancestor_mask, descendant_mask


class OrderedGraph(ABC):
    """A DAG of vertices ordered by strict dominance.

    Subclasses provide the dominance masks and the mapping from vertices to
    record pairs; everything else (adjacency, edge counts) is shared.

    Attributes:
        base: the pair-level graph whose vertex ids :meth:`member_vertices`
            returns (a :class:`PairGraph` is its own base).
    """

    base: PairGraph

    def __init__(self, num_vertices: int) -> None:
        self._num_vertices = num_vertices
        self._adjacency: list[np.ndarray] | None = None
        self._reachability = None

    def __len__(self) -> int:
        return self._num_vertices

    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    def _check_vertex(self, vertex: int) -> None:
        if not 0 <= vertex < self._num_vertices:
            raise GraphError(
                f"vertex {vertex} out of range [0, {self._num_vertices})"
            )

    def _check_vertices(self, vertices) -> np.ndarray:
        """*vertices* as an int64 array, after the range check."""
        vertices = np.asarray(vertices, dtype=np.int64)
        outside = (vertices < 0) | (vertices >= self._num_vertices)
        if outside.any():
            self._check_vertex(int(vertices[outside][0]))
        return vertices

    @abstractmethod
    def descendant_mask(self, vertex: int) -> np.ndarray:
        """Boolean mask of vertices strictly dominated by *vertex*."""

    @abstractmethod
    def ancestor_mask(self, vertex: int) -> np.ndarray:
        """Boolean mask of vertices strictly dominating *vertex*."""

    @abstractmethod
    def member_pairs(self, vertex: int) -> tuple[Pair, ...]:
        """The record pairs represented by *vertex*."""

    @abstractmethod
    def member_vertices(self, vertices) -> np.ndarray:
        """:attr:`base` vertex ids of every pair living in *vertices*.

        Vertex by vertex in the given order, each vertex's members in the
        order :meth:`member_pairs` lists them (int64 array).
        """

    @abstractmethod
    def representative_pair(self, vertex: int, rng: np.random.Generator) -> Pair:
        """The pair actually sent to the crowd when *vertex* is asked."""

    def _dominance_operands(self) -> tuple[np.ndarray, np.ndarray] | None:
        """``(dominant_rows, dominated_rows)`` for the blocked kernel.

        Vertex ``u`` dominates ``v`` iff ``dominant_rows[u] >=
        dominated_rows[v]`` component-wise with at least one strict ``>``.
        Subclasses that can express their order this way get blocked (tiled)
        adjacency construction for free; returning ``None`` keeps the
        per-vertex reference loop.
        """
        return None

    def descendants(self, vertex: int) -> np.ndarray:
        """Indices of vertices strictly dominated by *vertex*."""
        return np.flatnonzero(self.descendant_mask(vertex))

    def ancestors(self, vertex: int) -> np.ndarray:
        """Indices of vertices strictly dominating *vertex*."""
        return np.flatnonzero(self.ancestor_mask(vertex))

    def adjacency(self) -> list[np.ndarray]:
        """Children lists of the full dominance relation (cached).

        ``adjacency()[v]`` holds every vertex strictly dominated by ``v``.
        Since dominance is transitive this is both the edge set of Definition
        2 and its transitive closure.
        """
        if self._adjacency is None:
            operands = self._dominance_operands()
            if operands is not None:
                from .construction import blocked_dominance_lists

                self._adjacency = blocked_dominance_lists(*operands)
            else:
                self._adjacency = [
                    self.descendants(vertex) for vertex in range(self._num_vertices)
                ]
        return self._adjacency

    @property
    def reachability(self):
        """The cached :class:`~repro.graph.reachability.ReachabilityIndex`.

        ``None`` until :meth:`build_reachability` has built it;
        consumers treat ``None`` as "use the reference mask broadcasts".
        """
        return self._reachability

    def build_reachability(self):
        """Build (once) and cache the reachability index.

        Returns:
            The index, or ``None`` when this graph does not expose dominance
            operands (the naive oracle twins stay on their pure reference
            paths).
        """
        if self._reachability is not None:
            return self._reachability
        operands = self._dominance_operands()
        if operands is None:
            return None
        from .reachability import ReachabilityIndex

        self._reachability = ReachabilityIndex.build(*operands)
        return self._reachability

    @property
    def num_edges(self) -> int:
        """Number of dominance edges (full relation)."""
        return sum(len(children) for children in self.adjacency())

    def comparability_fraction(self) -> float:
        """Fraction of vertex pairs that are comparable under the order.

        The paper reports 70-84 % of pairs being *incomparable* on its
        datasets (Appendix E.1.1); this helper lets tests and benches check
        our synthetic data lands in the same regime.
        """
        n = self._num_vertices
        if n < 2:
            return 0.0
        return self.num_edges / (n * (n - 1) / 2)


class PairGraph(OrderedGraph):
    """The non-grouped graph: one vertex per similar record pair.

    Args:
        pairs: the candidate record pairs (vertex ``v`` is ``pairs[v]``).
        vectors: ``(len(pairs), m)`` similarity matrix, row-aligned.
    """

    def __init__(self, pairs: Sequence[Pair], vectors: np.ndarray) -> None:
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise GraphError(f"vectors must be 2-D, got shape {vectors.shape}")
        if len(pairs) != vectors.shape[0]:
            raise GraphError(
                f"{len(pairs)} pairs but {vectors.shape[0]} similarity vectors"
            )
        super().__init__(num_vertices=len(pairs))
        self.pairs = list(pairs)
        self.vectors = vectors

    @property
    def base(self) -> PairGraph:
        return self

    @property
    def num_attributes(self) -> int:
        return self.vectors.shape[1]

    def _dominance_operands(self) -> tuple[np.ndarray, np.ndarray]:
        return self.vectors, self.vectors

    def descendant_mask(self, vertex: int) -> np.ndarray:
        self._check_vertex(vertex)
        mask = descendant_mask(self.vectors, self.vectors[vertex])
        mask[vertex] = False
        return mask

    def ancestor_mask(self, vertex: int) -> np.ndarray:
        self._check_vertex(vertex)
        mask = ancestor_mask(self.vectors, self.vectors[vertex])
        mask[vertex] = False
        return mask

    def member_pairs(self, vertex: int) -> tuple[Pair, ...]:
        self._check_vertex(vertex)
        return (self.pairs[vertex],)

    def member_vertices(self, vertices) -> np.ndarray:
        return self._check_vertices(vertices)

    def representative_pair(self, vertex: int, rng: np.random.Generator) -> Pair:
        self._check_vertex(vertex)
        return self.pairs[vertex]
