"""Statistical sanity of the synthetic datasets vs the paper's regime."""

import numpy as np
import pytest

from repro.data import cora, entity_clusters, restaurant, true_match_pairs
from repro.graph import PairGraph, count_order_violations, order_statistics
from repro.similarity import SimilarityConfig, similar_pairs, similarity_matrix


@pytest.fixture(scope="module")
def restaurant_bundle():
    table = restaurant()
    pairs = similar_pairs(table, 0.2)
    vectors = similarity_matrix(table, pairs, SimilarityConfig.uniform(4))
    return table, pairs, vectors


class TestRestaurantStatistics:
    def test_candidates_cover_gold(self, restaurant_bundle):
        """The pruning threshold must not drop true matches (the paper's
        premise that pruned pairs are safe non-matches)."""
        table, pairs, _ = restaurant_bundle
        gold = true_match_pairs(table)
        assert len(gold & set(pairs)) >= 0.98 * len(gold)

    def test_cluster_sizes_small(self, restaurant_bundle):
        table, _, _ = restaurant_bundle
        sizes = [len(members) for members in entity_clusters(table).values()]
        assert max(sizes) <= 5  # restaurants duplicate rarely

    def test_incomparability_in_paper_regime(self, restaurant_bundle):
        """Appendix E.1.1: 70-84 % of pairs are incomparable on the paper's
        datasets; our synthetic stand-ins must land in the same world."""
        _, pairs, vectors, = restaurant_bundle
        graph = PairGraph(pairs, vectors)
        assert 0.10 <= order_statistics(graph, compute_width=False).comparability <= 0.45

    def test_order_violation_rate_low(self, restaurant_bundle):
        """§5.1's premise: 'few pairs invalidate the partial order'."""
        from repro.data.ground_truth import pair_truth

        table, pairs, vectors = restaurant_bundle
        graph = PairGraph(pairs, vectors)
        truth = pair_truth(table, pairs)
        violations, comparable = count_order_violations(graph, truth)
        assert violations / max(comparable, 1) < 0.01

    def test_matches_are_more_similar(self, restaurant_bundle):
        from repro.data.ground_truth import pair_truth

        table, pairs, vectors = restaurant_bundle
        truth = pair_truth(table, pairs)
        labels = np.array([truth[pair] for pair in pairs])
        means = vectors.mean(axis=1)
        assert means[labels].mean() > means[~labels].mean() + 0.2


class TestCoraStatistics:
    @pytest.fixture(scope="class")
    def table(self):
        return cora()

    def test_long_tailed_clusters(self, table):
        sizes = sorted(
            (len(members) for members in entity_clusters(table).values()),
            reverse=True,
        )
        assert sizes[0] >= 10  # the dirty-bibliography long tail
        assert np.median(sizes) <= 6

    def test_candidates_cover_gold(self, table):
        pairs = set(similar_pairs(table, 0.2))
        gold = true_match_pairs(table)
        assert len(gold & pairs) >= 0.98 * len(gold)

    def test_harder_than_restaurant(self, table):
        """Cora's match/non-match similarity gap is narrower — the property
        that makes it the 'hard' dataset in the paper's figures."""
        from repro.data.ground_truth import pair_truth

        pairs = similar_pairs(table, 0.2)
        vectors = similarity_matrix(table, pairs, SimilarityConfig.uniform(8))
        truth = pair_truth(table, pairs)
        labels = np.array([truth[pair] for pair in pairs])
        means = vectors.mean(axis=1)
        cora_gap = means[labels].mean() - means[~labels].mean()

        rest = restaurant()
        rest_pairs = similar_pairs(rest, 0.2)
        rest_vectors = similarity_matrix(rest, rest_pairs, SimilarityConfig.uniform(4))
        rest_truth = pair_truth(rest, rest_pairs)
        rest_labels = np.array([rest_truth[pair] for pair in rest_pairs])
        rest_gap = (
            rest_vectors.mean(axis=1)[rest_labels].mean()
            - rest_vectors.mean(axis=1)[~rest_labels].mean()
        )
        assert cora_gap < rest_gap
