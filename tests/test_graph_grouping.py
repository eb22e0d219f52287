"""Tests for the Split and Greedy grouping algorithms (§4.2, Appendix A)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, GraphError
from repro.graph import (
    GroupedGraph,
    PairGraph,
    build_graph,
    greedy_grouping,
    is_group,
    maximal_groups,
    split_grouping,
    validate_grouping,
)
from repro.graph import grouping
from repro.graph.grouping import Partition, split_partition
from repro.verify import reference_split_grouping

from conftest import random_vectors


def vectors_strategy():
    return st.tuples(
        st.integers(min_value=0, max_value=35),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=10_000),
    ).map(lambda args: random_vectors(args[2], args[0], args[1]))


EPSILONS = st.sampled_from([0.05, 0.1, 0.2, 0.3])


def _split_vectors(args) -> np.ndarray:
    n, m, levels, seed, duplicates = args
    rng = np.random.default_rng(seed)
    vectors = rng.random((n, m))
    if levels:
        vectors = np.round(vectors * levels) / levels
    if duplicates and n:
        vectors = vectors[rng.integers(0, n, n)]
    return vectors


def split_vectors_strategy():
    """Uniform, one-decimal and quarter-grid values (quarter-grid members
    sit on node midpoints), optionally with duplicate rows, m up to 8."""
    return st.tuples(
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=1, max_value=8),
        st.sampled_from([0, 10, 4]),
        st.integers(min_value=0, max_value=10_000),
        st.booleans(),
    ).map(_split_vectors)


SPLIT_EPSILONS = st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.25, 0.3, 0.5])


class TestIsGroup:
    def test_within_epsilon(self):
        vectors = np.array([[0.5, 0.5], [0.55, 0.45]])
        assert is_group(vectors, [0, 1], 0.1)

    def test_exceeds_epsilon(self):
        vectors = np.array([[0.5, 0.5], [0.7, 0.5]])
        assert not is_group(vectors, [0, 1], 0.1)

    def test_empty_not_a_group(self):
        assert not is_group(np.empty((0, 2)), [], 0.1)


class TestSplitGrouping:
    @settings(max_examples=80, deadline=None)
    @given(split_vectors_strategy(), SPLIT_EPSILONS)
    def test_always_valid_partition(self, vectors, epsilon):
        """A valid partition, and exactly the per-node reference's groups."""
        groups = split_grouping(vectors, epsilon)
        validate_grouping(vectors, groups, epsilon)
        assert groups == reference_split_grouping(vectors, epsilon)

    def test_midpoint_member_goes_low_and_span_equal_to_epsilon_stays(self):
        # Root [0, 1] halves at .5; .5 is not above it, so {0, .5} is one
        # child, whose span .5 equals epsilon and is not split again.
        vectors = np.array([[0.0], [0.5], [1.0]])
        assert split_grouping(vectors, 0.5) == [[0, 1], [2]]

    def test_all_identical_vectors_one_group(self):
        vectors = np.tile([0.5, 0.5], (10, 1))
        assert split_grouping(vectors, 0.1) == [list(range(10))]

    def test_epsilon_zero_groups_exact_duplicates(self):
        vectors = np.array([[0.5], [0.5], [0.7]])
        groups = split_grouping(vectors, 0.0)
        assert sorted(map(sorted, groups)) == [[0, 1], [2]]

    def test_epsilon_one_single_group(self):
        vectors = random_vectors(1, 20, 3)
        assert len(split_grouping(vectors, 1.0)) == 1

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ConfigurationError):
            split_grouping(np.array([[0.5]]), -0.1)

    def test_empty_input(self):
        assert split_grouping(np.empty((0, 2)), 0.1) == []

    def test_more_groups_for_smaller_epsilon(self, small_bundle):
        _, _, vectors, _ = small_bundle
        coarse = split_grouping(vectors, 0.2)
        fine = split_grouping(vectors, 0.05)
        assert len(fine) >= len(coarse)

    def test_deterministic(self, small_bundle):
        _, _, vectors, _ = small_bundle
        assert split_grouping(vectors, 0.1) == split_grouping(vectors, 0.1)


def _tie_heavy_vectors(args) -> np.ndarray:
    """Few distinct values, many exact repeats and members on midpoints."""
    n, m, seed = args
    rng = np.random.default_rng(seed)
    return rng.integers(0, 3, (n, m)) / 2.0


def partition_vectors_strategy():
    return st.one_of(
        split_vectors_strategy(),
        st.tuples(
            st.integers(min_value=0, max_value=60),
            st.integers(min_value=1, max_value=5),
            st.integers(min_value=0, max_value=10_000),
        ).map(_tie_heavy_vectors),
    )


class TestSplitPartition:
    """The flat partition build_graph hands to the grouped graph."""

    @settings(max_examples=80, deadline=None)
    @given(partition_vectors_strategy(), SPLIT_EPSILONS)
    @example(np.empty((0, 3)), 0.1)
    @example(np.array([[0.4, 0.6]]), 0.0)
    @example(np.array([[0.4, 0.6]]), 0.1)
    def test_equals_the_per_node_reference(self, vectors, epsilon):
        """Group order and member order both match the reference."""
        members, sizes = split_partition(vectors, epsilon)
        assert members.dtype == sizes.dtype == np.int64
        expected = reference_split_grouping(vectors, epsilon)
        assert sizes.tolist() == [len(group) for group in expected]
        assert members.tolist() == [member for group in expected for member in group]
        assert split_grouping(vectors, epsilon) == expected

    @settings(max_examples=60, deadline=None)
    @given(partition_vectors_strategy(), SPLIT_EPSILONS)
    @example(np.empty((0, 2)), 0.1)
    @example(np.array([[0.5, 0.5]]), 0.0)
    def test_grouped_graph_from_the_partition_equals_one_from_lists(self, vectors, epsilon):
        pairs = [(2 * k, 2 * k + 1) for k in range(vectors.shape[0])]
        base = PairGraph(pairs, vectors)
        flat = GroupedGraph(base, split_partition(vectors, epsilon))
        listed = GroupedGraph(base, split_grouping(vectors, epsilon))
        assert np.array_equal(flat._offsets, listed._offsets)
        assert np.array_equal(flat._members, listed._members)
        assert np.array_equal(flat.lower_bounds, listed.lower_bounds)
        assert np.array_equal(flat.upper_bounds, listed.upper_bounds)
        assert flat.grouping == listed.grouping
        for vertex in range(len(base)):
            assert flat.group_of_pair_vertex(vertex) == listed.group_of_pair_vertex(vertex)

    def test_build_graph_hands_over_the_flat_partition(self, monkeypatch):
        vectors = random_vectors(3, 40, 3)
        pairs = [(2 * k, 2 * k + 1) for k in range(40)]
        handed = []
        monkeypatch.setattr(GroupedGraph, "__init__", lambda self, base, g: handed.append(g))
        build_graph(pairs, vectors, 0.1)
        assert len(handed) == 1 and isinstance(handed[0], Partition)

    def test_list_groupings_still_reach_the_graph(self):
        vectors = random_vectors(4, 30, 2)
        pairs = [(2 * k, 2 * k + 1) for k in range(30)]
        greedy = greedy_grouping(vectors, 0.2)
        graph = build_graph(pairs, vectors, 0.2, grouping_algorithm="greedy")
        assert graph.grouping == greedy
        assert Partition.from_groups(greedy).groups() == greedy

    def test_inconsistent_partition_is_rejected(self):
        base = PairGraph([(0, 1), (0, 2), (1, 2)], np.array([[0.1], [0.2], [0.9]]))
        members = np.array([0, 1, 2])
        with pytest.raises(GraphError, match="sum to 4"):
            GroupedGraph(base, Partition(members, np.array([2, 2])))
        with pytest.raises(GraphError, match="empty"):
            GroupedGraph(base, Partition(members, np.array([3, 0])))
        with pytest.raises(GraphError, match="two groups"):
            GroupedGraph(base, Partition(np.array([0, 0, 2]), np.array([2, 1])))

    def test_more_than_64_attributes_are_refused(self):
        # A 65th attribute's cell bit would be lost, so a node wide only
        # there could never split.
        vectors = np.zeros((4, 65))
        vectors[:, 64] = [0.0, 0.3, 0.6, 0.9]
        with pytest.raises(GraphError, match="at most 64 attributes"):
            split_partition(vectors, 0.1)
        vectors = np.zeros((4, 64))
        vectors[:, 63] = [0.0, 0.3, 0.6, 0.9]
        assert split_grouping(vectors, 0.1) == reference_split_grouping(vectors, 0.1)


class TestChildOrder:
    """The combined (node, cell) key orders exactly as the two-key sort."""

    @staticmethod
    def _level(rng, nodes: int, size: int, m: int):
        node = np.sort(rng.integers(0, nodes, size))
        values = rng.random((size, m))
        cuts = rng.random((size, m))
        cuts[rng.random((size, m)) < 0.3] = np.inf  # attributes not halved
        cells = grouping._cell_keys(values, cuts)
        return node, cells

    @pytest.mark.parametrize("m", [1, 4, 16, 47, 62, 63, 64])
    @pytest.mark.parametrize("nodes", [1, 2, 300, 70_000])
    def test_matches_lexsort_up_to_the_widest_cell_key(self, m, nodes):
        rng = np.random.default_rng(m * 1000 + nodes)
        node, cells = self._level(rng, nodes, 3_000, m)
        expected = np.lexsort((cells, node))
        assert np.array_equal(grouping._child_order(node, cells, m), expected)

    def test_widest_key_uses_every_bit(self):
        """At m = 64 bit 63 is the sign: the keys stay distinct and the
        order still matches the two-key sort."""
        m = 64
        values = np.ones((4, m))
        cuts = np.zeros((4, m))
        cuts[0] = cuts[2] = np.inf  # members 0 and 2 are low everywhere
        cuts[1, :63] = np.inf  # member 1 is high only on attribute 63
        cells = grouping._cell_keys(values, cuts)
        assert cells.tolist() == [0, -(1 << 63), 0, -1]
        node = np.array([0, 0, 1, 1])
        assert np.array_equal(
            grouping._child_order(node, cells, m), np.lexsort((cells, node))
        )


class TestGreedyGrouping:
    @settings(max_examples=25, deadline=None)
    @given(vectors_strategy(), EPSILONS)
    def test_always_valid_partition(self, vectors, epsilon):
        groups = greedy_grouping(vectors, epsilon)
        validate_grouping(vectors, groups, epsilon)

    @settings(max_examples=25, deadline=None)
    @given(vectors_strategy(), EPSILONS)
    def test_comparable_group_counts_to_split(self, vectors, epsilon):
        """Greedy's ln|V| set cover usually beats the Split heuristic; it can
        lose on adversarial inputs but never by much (the paper observes
        Split generating 'a few more groups than Greedy')."""
        greedy = greedy_grouping(vectors, epsilon)
        split = split_grouping(vectors, epsilon)
        assert len(greedy) <= max(len(split) * 2, len(split) + 3)

    def test_candidate_cap(self):
        vectors = random_vectors(0, 30, 3)
        with pytest.raises(ConfigurationError):
            greedy_grouping(vectors, 0.3, max_candidates=1)

    def test_empty_input(self):
        assert greedy_grouping(np.empty((0, 2)), 0.1) == []


class TestMaximalGroups:
    def test_one_dimensional_windows(self):
        vectors = np.array([[1.0], [0.95], [0.5], [0.45], [0.4]])
        groups = {frozenset(g) for g in maximal_groups(vectors, 0.1)}
        assert frozenset({0, 1}) in groups
        assert frozenset({2, 3, 4}) in groups

    def test_every_maximal_group_is_valid(self):
        vectors = random_vectors(7, 25, 2)
        for group in maximal_groups(vectors, 0.15):
            assert is_group(vectors, sorted(group), 0.15)

    def test_join_covers_all_vertices(self):
        vectors = random_vectors(8, 25, 3)
        union = set().union(*maximal_groups(vectors, 0.1))
        assert union == set(range(25))


class TestValidateGrouping:
    def test_detects_overlap(self):
        vectors = np.array([[0.5], [0.5]])
        with pytest.raises(GraphError, match="two groups"):
            validate_grouping(vectors, [[0, 1], [1]], 0.1)

    def test_detects_missing_vertex(self):
        vectors = np.array([[0.5], [0.5]])
        with pytest.raises(GraphError, match="misses"):
            validate_grouping(vectors, [[0]], 0.1)

    def test_detects_epsilon_violation(self):
        vectors = np.array([[0.1], [0.9]])
        with pytest.raises(GraphError, match="epsilon"):
            validate_grouping(vectors, [[0, 1]], 0.1)

    def test_detects_empty_group(self):
        vectors = np.array([[0.5]])
        with pytest.raises(GraphError, match="empty"):
            validate_grouping(vectors, [[0], []], 0.1)
