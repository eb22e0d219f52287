"""Tests for Eq. 7 weights, Eq. 8 similarities, and match histograms (§6)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.graph import Color
from repro.selection import attribute_weights, build_histogram, weighted_similarities


class TestAttributeWeights:
    def test_weights_sum_to_one(self):
        green = np.array([[0.9, 0.1], [0.8, 0.2]])
        weights = attribute_weights(green, 2)
        assert weights.sum() == pytest.approx(1.0)

    def test_heavier_attribute_gets_more_weight(self):
        green = np.array([[0.9, 0.1], [0.8, 0.2]])
        weights = attribute_weights(green, 2)
        assert weights[0] > weights[1]

    def test_no_green_pairs_uniform(self):
        weights = attribute_weights(np.empty((0, 3)), 3)
        assert np.allclose(weights, [1 / 3] * 3)

    def test_zero_mass_uniform(self):
        weights = attribute_weights(np.zeros((4, 2)), 2)
        assert np.allclose(weights, [0.5, 0.5])

    @settings(max_examples=30)
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=0, max_value=9999),
    )
    def test_weights_nonnegative_and_normalised(self, m, n, seed):
        rng = np.random.default_rng(seed)
        weights = attribute_weights(rng.random((n, m)), m)
        assert np.all(weights >= 0)
        assert weights.sum() == pytest.approx(1.0)


class TestWeightedSimilarities:
    def test_linear_combination(self):
        vectors = np.array([[1.0, 0.0], [0.5, 0.5]])
        s_hat = weighted_similarities(vectors, np.array([0.75, 0.25]))
        assert s_hat[0] == pytest.approx(0.75)
        assert s_hat[1] == pytest.approx(0.5)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            weighted_similarities(np.ones((2, 3)), np.ones(2))


class TestHistogram:
    def test_appendix_c_equi_width_example(self):
        """Five width-0.2 bins; h4 = [0.6, 0.8) has Pr = 1; 0.72 -> GREEN."""
        values = np.array([0.97, 0.98, 0.68, 0.60, 0.43, 0.42, 0.41, 0.44, 0.44, 0.40,
                           0.21, 0.37, 0.39, 0.39, 0.28, 0.29])
        labels = np.array([True, True, True, True, True, True, True, True, False, False,
                           False, False, False, False, False, False])
        histogram = build_histogram(values, labels, num_bins=5, binning="equi-width")
        assert histogram.probability(0.72) == pytest.approx(1.0)
        assert histogram.classify(0.72) is True
        assert histogram.classify(0.28) is False

    def test_bin_boundary_semantics(self):
        """[lo, hi) bins: 0.8 belongs to the top bin, not [0.6, 0.8)."""
        values = np.array([0.7, 0.9])
        labels = np.array([False, True])
        histogram = build_histogram(values, labels, num_bins=5, binning="equi-width")
        assert histogram.probability(0.8) == pytest.approx(1.0)
        assert histogram.probability(0.79) == pytest.approx(0.0)

    def test_equi_depth_balances_counts(self):
        values = np.concatenate([np.linspace(0, 0.1, 50), np.linspace(0.9, 1.0, 50)])
        labels = values > 0.5
        histogram = build_histogram(values, labels, num_bins=4, binning="equi-depth")
        assert histogram.counts.sum() == 100
        assert histogram.classify(0.95) is True
        assert histogram.classify(0.05) is False

    def test_empty_bins_inherit_neighbours(self):
        values = np.array([0.05, 0.95])
        labels = np.array([False, True])
        histogram = build_histogram(values, labels, num_bins=10, binning="equi-width")
        assert histogram.probability(0.2) == pytest.approx(0.0)  # near the red
        assert histogram.probability(0.85) == pytest.approx(1.0)  # near the green

    def test_no_training_data_gives_half(self):
        histogram = build_histogram(np.array([]), np.array([], dtype=bool))
        assert histogram.probability(0.5) == pytest.approx(0.5)
        assert histogram.classify(0.5) is False  # 0.5 is not > 0.5

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            build_histogram(np.array([0.5]), np.array([True, False]))
        with pytest.raises(ConfigurationError):
            build_histogram(np.array([0.5]), np.array([True]), num_bins=0)
        with pytest.raises(ConfigurationError):
            build_histogram(np.array([0.5]), np.array([True]), binning="magic")

    @settings(max_examples=30)
    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=9999),
           st.sampled_from(["equi-depth", "equi-width"]))
    def test_probabilities_in_unit_interval(self, n, seed, binning):
        rng = np.random.default_rng(seed)
        values = rng.random(n)
        labels = rng.random(n) < 0.5
        histogram = build_histogram(values, labels, num_bins=7, binning=binning)
        assert np.all(histogram.probabilities >= 0)
        assert np.all(histogram.probabilities <= 1)


class TestClassifyMany:
    """The vectorized settle step against per-value ``classify``."""

    @staticmethod
    def _assert_matches(histogram, values):
        expected = [histogram.classify(float(value)) for value in values]
        assert histogram.classify_many(np.asarray(values)).tolist() == expected

    def test_boundaries_and_outer_values(self):
        values = np.array([0.05, 0.15, 0.3, 0.45, 0.55, 0.7, 0.85, 0.95])
        histogram = build_histogram(values, values > 0.5, num_bins=4, binning="equi-width")
        probes = list(histogram.boundaries) + [-1.0, 0.0, 0.25, 0.5, 1.0, 2.0]
        self._assert_matches(histogram, probes)

    def test_equi_depth_histogram(self):
        rng = np.random.default_rng(4)
        values = rng.random(200).round(2)
        histogram = build_histogram(values, rng.random(200) < values, num_bins=20)
        probes = np.concatenate((values, histogram.boundaries, [-0.5, 1.5]))
        self._assert_matches(histogram, probes)

    def test_single_bin_histogram(self):
        histogram = build_histogram(np.array([0.2, 0.8]), np.array([True, True]), num_bins=1)
        assert len(histogram.probabilities) == 1
        self._assert_matches(histogram, [-1.0, 0.2, 0.8, 3.0])

    def test_settle_step_matches_the_per_pair_loop(self):
        """Same items, same dict order, with and without GREEN training pairs."""
        from repro.graph import ColoringState, PairGraph
        from repro.selection import ErrorPolicy, resolve_undecided_vertices
        from repro.selection.histograms import attribute_weights, weighted_similarities
        from repro.verify import random_instance

        pairs, vectors = random_instance(5, 60)
        graph = PairGraph(pairs, vectors)
        undecided = np.arange(30, 60)
        for green in (True, False):  # False: the no-GREEN fallback
            state = ColoringState(graph)
            state.apply_round(range(30), [green and v % 2 == 0 for v in range(30)])
            labels = resolve_undecided_vertices(graph, state, undecided, ErrorPolicy())
            greens = vectors[state.vertices_with(Color.GREEN)]
            weights = attribute_weights(greens, num_attributes=vectors.shape[1])
            values = weighted_similarities(vectors[undecided], weights)
            if green:
                reds = vectors[state.vertices_with(Color.RED)]
                trained = weighted_similarities(np.vstack((greens, reds)), weights)
                is_match = np.arange(len(trained)) < len(greens)
                histogram = build_histogram(trained, is_match, num_bins=20)
                expected = {
                    pairs[v]: histogram.classify(float(s)) for v, s in zip(undecided, values)
                }
            else:
                expected = {pairs[v]: bool(s > 0.5) for v, s in zip(undecided, values)}
            assert list(labels.items()) == list(expected.items())
