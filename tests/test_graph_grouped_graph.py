"""Tests for the grouped graph (Definitions 5-6)."""

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graph import (
    GroupedGraph,
    PairGraph,
    build_graph,
    split_grouping,
)
from repro.verify import NaiveGroupedGraph, NaivePairGraph
from repro.verify.relation import strictly_dominates

from conftest import random_vectors


@pytest.fixture()
def simple_grouped():
    pairs = [(0, 1), (0, 2), (1, 2), (3, 4)]
    vectors = np.array(
        [
            [0.95, 0.9],
            [0.9, 0.92],
            [0.5, 0.5],
            [0.1, 0.1],
        ]
    )
    base = PairGraph(pairs, vectors)
    grouping = [[0, 1], [2], [3]]
    return GroupedGraph(base, grouping)


class TestGroupedGraph:
    def test_bounds(self, simple_grouped):
        assert np.allclose(simple_grouped.lower_bounds[0], [0.9, 0.9])
        assert np.allclose(simple_grouped.upper_bounds[0], [0.95, 0.92])

    def test_group_dominance_uses_bounds(self, simple_grouped):
        # group 0 (l = .9,.9) > group 1 (u = .5,.5) > group 2 (u = .1,.1).
        relation = simple_grouped.reachability
        assert sorted(relation.descendants(0)) == [1, 2]
        assert sorted(relation.ancestors(2)) == [0, 1]

    def test_member_pairs(self, simple_grouped):
        assert set(simple_grouped.member_pairs(0)) == {(0, 1), (0, 2)}

    def test_representative_is_a_member(self, simple_grouped):
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert simple_grouped.representative_pair(0, rng) in {(0, 1), (0, 2)}

    def test_group_of_pair_vertex(self, simple_grouped):
        assert simple_grouped.group_of_pair_vertex(0) == 0
        assert simple_grouped.group_of_pair_vertex(2) == 1
        with pytest.raises(GraphError):
            simple_grouped.group_of_pair_vertex(99)

    def test_group_sizes(self, simple_grouped):
        assert list(simple_grouped.group_sizes()) == [2, 1, 1]

    def test_partition_validation(self):
        base = PairGraph([(0, 1), (1, 2)], np.array([[0.5], [0.6]]))
        with pytest.raises(GraphError):
            GroupedGraph(base, [[0]])  # misses vertex 1
        with pytest.raises(GraphError):
            GroupedGraph(base, [[0, 1], [1]])  # duplicate
        with pytest.raises(GraphError):
            GroupedGraph(base, [[0, 1], []])  # empty group
        with pytest.raises(GraphError):
            GroupedGraph(base, [[0, 1, 5]])  # out of range

    def test_grouping_round_trips_the_partition(self):
        vectors = random_vectors(4, 50, 3)
        grouping = split_grouping(vectors, 0.2)
        grouped = GroupedGraph(PairGraph([(i, i + 100) for i in range(50)], vectors), grouping)
        assert grouped.grouping == grouping
        assert grouped.group_sizes().tolist() == [len(group) for group in grouping]

    def test_group_order_sound_for_members(self):
        """If g_i > g_j then every member pair of g_i strictly dominates
        every member pair of g_j (the soundness the paper proves)."""
        vectors = random_vectors(21, 40, 3)
        base = PairGraph([(i, i + 100) for i in range(40)], vectors)
        grouped = GroupedGraph(base, split_grouping(vectors, 0.15))
        for gi in range(len(grouped)):
            for gj in grouped.reachability.descendants(gi):
                for a in grouped.grouping[gi]:
                    for b in grouped.grouping[int(gj)]:
                        assert strictly_dominates(vectors[a], vectors[b])


class TestMemberVertices:
    def test_pair_graph_returns_the_vertices(self):
        base = PairGraph([(0, 1), (0, 2), (1, 2)], np.array([[0.5], [0.6], [0.7]]))
        assert base.member_vertices([2, 0, 2]).tolist() == [2, 0, 2]
        assert base.member_vertices([]).dtype == np.int64
        with pytest.raises(GraphError):
            base.member_vertices([3])

    def test_grouped_graph_gathers_in_vertex_order(self, simple_grouped):
        # Groups [0, 1], [2] and [3].
        assert simple_grouped.member_vertices([2, 0]).tolist() == [3, 0, 1]
        assert simple_grouped.member_vertices(np.arange(3)).tolist() == [0, 1, 2, 3]
        assert simple_grouped.member_vertices([]).tolist() == []
        for bad in ([3], [-1]):
            with pytest.raises(GraphError):
                simple_grouped.member_vertices(bad)

    def test_grouped_and_naive_agree_with_member_pairs(self):
        vectors = random_vectors(21, 40, 3)
        pairs = [(i, i + 100) for i in range(40)]
        grouping = split_grouping(vectors, 0.15)
        grouped = GroupedGraph(PairGraph(pairs, vectors), grouping)
        naive = NaiveGroupedGraph(NaivePairGraph(pairs, vectors), grouping)
        vertices = np.random.default_rng(0).integers(0, len(grouped), 25)
        expected = [member for v in vertices.tolist() for member in grouping[v]]
        assert grouped.member_vertices(vertices).tolist() == expected
        assert naive.member_vertices(vertices).tolist() == expected
        assert [pairs[m] for m in expected] == [
            pair for v in vertices.tolist() for pair in grouped.member_pairs(v)
        ]
        with pytest.raises(GraphError):
            naive.member_vertices([len(naive)])


class TestBuildGraph:
    def test_epsilon_none_returns_pair_graph(self, small_bundle):
        _, pairs, vectors, _ = small_bundle
        graph = build_graph(pairs, vectors, epsilon=None)
        assert isinstance(graph, PairGraph)
        assert len(graph) == len(pairs)

    def test_epsilon_zero_groups_identical_vectors(self):
        """epsilon 0 still groups: only None returns the raw PairGraph."""
        vectors = np.array([[0.5, 0.1], [0.2, 0.2], [0.5, 0.1], [0.2, 0.2], [0.9, 0.9]])
        pairs = [(2 * k, 2 * k + 1) for k in range(5)]
        graph = build_graph(pairs, vectors, epsilon=0)
        assert isinstance(graph, GroupedGraph)
        assert graph.grouping == [[0, 2], [1, 3], [4]]
        assert np.array_equal(graph.lower_bounds, graph.upper_bounds)

    def test_grouped_smaller_than_base(self, small_bundle):
        _, pairs, vectors, _ = small_bundle
        graph = build_graph(pairs, vectors, epsilon=0.1)
        assert isinstance(graph, GroupedGraph)
        assert len(graph) <= len(pairs)

    def test_unknown_grouping_algorithm(self, small_bundle):
        _, pairs, vectors, _ = small_bundle
        with pytest.raises(GraphError):
            build_graph(pairs, vectors, grouping_algorithm="magic")
