"""Tests for the Split and Greedy grouping algorithms (§4.2, Appendix A)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, GraphError
from repro.graph import (
    greedy_grouping,
    is_group,
    maximal_groups,
    split_grouping,
    validate_grouping,
)
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
