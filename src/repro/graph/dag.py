"""Graph model of the partial order (paper Definition 2).

:class:`OrderedGraph` is the abstract vertex-set-with-dominance interface
shared by the per-pair graph (:class:`PairGraph`) and the grouped graph
(:mod:`repro.graph.grouped_graph`).  Question-selection algorithms and the
coloring engine are written against this interface, so they run unchanged on
grouped and non-grouped graphs — exactly how the paper uses them.

A graph states its order as two row-aligned matrices
(:meth:`OrderedGraph._dominance_operands`), and holds the relation they
define in one form: the packed
:class:`~repro.graph.reachability.ReachabilityIndex`
(:attr:`OrderedGraph.reachability`), built on first read.  Because strict
dominance is transitive, the index's descendant rows are both the edge
set of Definition 2 and its transitive closure; inference (§3.2), the Kahn
layers and the path covers (§5) read it as ancestors and descendants.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from functools import cached_property

import numpy as np

from ..data.ground_truth import Pair
from ..exceptions import GraphError
from .reachability import ReachabilityIndex


class OrderedGraph(ABC):
    """A DAG of vertices ordered by strict dominance.

    Subclasses provide the dominance operands and the mapping from vertices
    to record pairs; the relation itself is :attr:`reachability`.

    Attributes:
        base: the pair-level graph whose vertex ids :meth:`member_vertices`
            returns (a :class:`PairGraph` is its own base).
    """

    base: PairGraph

    def __init__(self, num_vertices: int) -> None:
        self._num_vertices = num_vertices

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

    @abstractmethod
    def _dominance_operands(self) -> tuple[np.ndarray, np.ndarray]:
        """``(dominant_rows, dominated_rows)``, row-aligned ``(n, m)`` arrays.

        Vertex ``u`` dominates ``v`` iff ``dominant_rows[u] >=
        dominated_rows[v]`` component-wise with at least one strict ``>``.
        """

    @cached_property
    def reachability(self) -> ReachabilityIndex:
        """The dominance relation: the packed reachability index.

        Built from :meth:`_dominance_operands` on first read and cached;
        ``descendants(v)`` / ``ancestors(v)`` list what *v* strictly
        dominates / is dominated by, in ascending vertex id.
        """
        return ReachabilityIndex.build(*self._dominance_operands())


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

    def member_pairs(self, vertex: int) -> tuple[Pair, ...]:
        self._check_vertex(vertex)
        return (self.pairs[vertex],)

    def member_vertices(self, vertices) -> np.ndarray:
        return self._check_vertices(vertices)

    def representative_pair(self, vertex: int, rng: np.random.Generator) -> Pair:
        self._check_vertex(vertex)
        return self.pairs[vertex]
