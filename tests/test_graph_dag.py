"""Tests for PairGraph / OrderedGraph."""

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graph import PairGraph, order_statistics


@pytest.fixture()
def chain_graph():
    """Three totally ordered vertices plus one incomparable."""
    pairs = [(0, 1), (0, 2), (1, 2), (3, 4)]
    vectors = np.array(
        [
            [0.9, 0.9],
            [0.5, 0.5],
            [0.1, 0.1],
            [1.0, 0.0],
        ]
    )
    return PairGraph(pairs, vectors)


class TestPairGraph:
    def test_basic_shape(self, chain_graph):
        assert len(chain_graph) == 4
        assert chain_graph.num_attributes == 2

    def test_descendants_and_ancestors(self, chain_graph):
        relation = chain_graph.reachability
        assert sorted(relation.descendants(0)) == [1, 2]
        assert sorted(relation.ancestors(2)) == [0, 1]
        assert list(relation.descendants(3)) == []
        assert list(relation.ancestors(3)) == []

    def test_adjacency_is_full_relation(self, chain_graph):
        """The descendant rows are the whole transitive relation."""
        relation = chain_graph.reachability
        assert relation.descendants(0).tolist() == [1, 2]
        assert relation.descendants(1).tolist() == [2]
        assert order_statistics(chain_graph).num_edges == 3

    def test_self_never_related(self, chain_graph):
        relation = chain_graph.reachability
        for vertex in range(4):
            assert not relation.descendant_mask(vertex)[vertex]
            assert not relation.ancestor_mask(vertex)[vertex]

    def test_equal_vectors_incomparable(self):
        graph = PairGraph([(0, 1), (2, 3)], np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert order_statistics(graph).num_edges == 0
        assert graph.reachability.reached([0, 1]).tolist() == []

    def test_member_and_representative(self, chain_graph):
        rng = np.random.default_rng(0)
        assert chain_graph.member_pairs(1) == ((0, 2),)
        assert chain_graph.representative_pair(1, rng) == (0, 2)

    def test_shape_validation(self):
        with pytest.raises(GraphError):
            PairGraph([(0, 1)], np.array([1.0, 2.0]))  # 1-D vectors
        with pytest.raises(GraphError):
            PairGraph([(0, 1), (1, 2)], np.array([[1.0]]))  # count mismatch

    def test_vertex_range_checked(self, chain_graph):
        with pytest.raises(GraphError):
            chain_graph.reachability.descendants(99)

    def test_comparability_fraction(self, chain_graph):
        # 3 comparable pairs of 6 possible.
        assert order_statistics(chain_graph).comparability == pytest.approx(0.5)
