"""Differential oracles: production paths vs their brute-force twins."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crowd import SimulatedCrowd, WorkerPool
from repro.exceptions import VerificationError
from repro.graph import PairGraph
from repro.selection import SELECTORS
from repro.verify import (
    NaivePairGraph,
    check_batch_similarity,
    check_crowd_aggregation,
    check_dominance_construction,
    check_join_methods,
    check_selector_differential,
    check_selector_monotone_oracle,
    check_split_grouping,
    check_transitive_closure,
    monotone_truth,
    naive_dominance_edges,
    naive_transitive_closure,
    quarter_grid_vectors,
    random_instance,
)

SEEDS = range(10)
ALL_SELECTORS = tuple(sorted(SELECTORS)) + ("greedy-reference",)


class TestDominanceOracles:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_construction_algorithms_agree_with_naive(self, seed):
        _, vectors = random_instance(seed)
        check_dominance_construction(vectors)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_dominance_is_transitively_closed(self, seed):
        _, vectors = random_instance(seed)
        check_transitive_closure(vectors)

    def test_naive_edges_on_known_chain(self):
        vectors = np.array([[0.9, 0.9], [0.5, 0.5], [0.1, 0.1]])
        assert naive_dominance_edges(vectors) == {(0, 1), (0, 2), (1, 2)}

    def test_naive_edges_incomparable(self):
        vectors = np.array([[0.9, 0.1], [0.1, 0.9]])
        assert naive_dominance_edges(vectors) == set()

    def test_naive_closure(self):
        closure = naive_transitive_closure({(0, 1), (1, 2)}, 3)
        assert closure == {(0, 1), (1, 2), (0, 2)}

    def test_oracle_catches_missing_edge(self, monkeypatch):
        from repro.graph import construction

        original = construction.blocked_dominance_lists

        def mutated(dominant, dominated, *args, **kwargs):
            lists = original(dominant, dominated, *args, **kwargs)
            for index, children in enumerate(lists):
                if len(children):
                    lists[index] = children[:-1]
                    break
            return lists

        monkeypatch.setattr(construction, "blocked_dominance_lists", mutated)
        _, vectors = random_instance(0)
        with pytest.raises(VerificationError, match="missing"):
            check_dominance_construction(vectors)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 12),
        st.integers(1, 4),
        st.integers(0, 10_000),
    )
    def test_construction_hypothesis(self, n, m, seed):
        rng = np.random.default_rng(seed)
        vectors = (rng.integers(0, 4, size=(n, m)) / 3.0).astype(np.float64)
        check_dominance_construction(vectors)
        check_transitive_closure(vectors)


class TestSplitGroupingOracle:
    @pytest.mark.parametrize(
        "vectors",
        [
            random_instance(0)[1],
            quarter_grid_vectors(0),
            np.empty((0, 4)),
            np.array([[0.3, 0.7]]),
        ],
        ids=["one-decimal", "quarter-grid", "n=0", "n=1"],
    )
    @pytest.mark.parametrize("epsilon", [0.0, 0.15, 0.25, 0.5])
    def test_production_matches_the_references(self, vectors, epsilon):
        check_split_grouping(vectors, epsilon)

    def test_oracle_catches_wrong_bounds(self, monkeypatch):
        from repro.graph import GroupedGraph

        original = GroupedGraph.__init__

        def mutated(self, base, grouping):
            original(self, base, grouping)
            self.upper_bounds = self.lower_bounds  # bug: upper bound lost

        monkeypatch.setattr(GroupedGraph, "__init__", mutated)
        with pytest.raises(VerificationError, match="upper_bounds"):
            check_split_grouping(quarter_grid_vectors(0), 0.25)


class TestSelectorDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", ALL_SELECTORS)
    def test_production_equals_naive(self, name, seed):
        pairs, vectors = random_instance(seed)
        check_selector_differential(name, pairs, vectors, seed=seed)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", ALL_SELECTORS)
    def test_monotone_truth_recovered_exactly(self, name, seed):
        pairs, vectors = random_instance(seed)
        check_selector_monotone_oracle(name, pairs, vectors, seed=seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_grouped_differential(self, seed):
        pairs, vectors = random_instance(seed)
        check_selector_differential("power", pairs, vectors, seed=seed, epsilon=0.15)

    @pytest.mark.parametrize("seed", range(4))
    def test_noisy_differential(self, seed):
        pairs, vectors = random_instance(seed)
        check_selector_differential("power", pairs, vectors, seed=seed, band="90")

    def test_naive_graph_matches_production_masks(self):
        pairs, vectors = random_instance(3)
        fast, slow = PairGraph(pairs, vectors), NaivePairGraph(pairs, vectors)
        for vertex in range(len(fast)):
            assert np.array_equal(
                fast.descendant_mask(vertex), slow.descendant_mask(vertex)
            )
            assert np.array_equal(
                fast.ancestor_mask(vertex), slow.ancestor_mask(vertex)
            )

    def test_monotone_truth_respects_order(self):
        _, vectors = random_instance(1)
        truth = monotone_truth(vectors)
        for u, v in naive_dominance_edges(vectors):
            assert truth[u] >= truth[v]  # a dominated match forces the dominator

    def test_oracle_catches_inverted_propagation(self, monkeypatch):
        from repro.graph.coloring import ColoringState

        # The round update's vote count, which both selection loops run.
        def mutated(self, green, red):
            green_votes = np.zeros(len(self.graph), dtype=np.int32)
            red_votes = np.zeros(len(self.graph), dtype=np.int32)
            for vertex in green:
                green_votes += self.graph.descendant_mask(vertex)
            for vertex in red:
                red_votes += self.graph.ancestor_mask(vertex)
            return green_votes, red_votes

        monkeypatch.setattr(ColoringState, "_inference_votes", mutated)
        pairs, vectors = random_instance(0)
        with pytest.raises(VerificationError):
            check_selector_differential("power", pairs, vectors, seed=0)


class TestSimilarityOracles:
    def test_batch_similarity_bit_identical(self, small_bundle):
        from repro.similarity import SimilarityConfig

        table, pairs, _, _ = small_bundle
        config = SimilarityConfig.uniform(table.num_attributes)
        check_batch_similarity(table, pairs, config)

    def test_join_methods_agree(self, small_table):
        for threshold in (0.2, 0.25, 0.3):
            check_join_methods(small_table, threshold)

    def test_join_oracles_pair_empty_records(self):
        from repro.verify import naive_join, prefix_join

        token_sets = [frozenset(), frozenset({"a", "b"}), frozenset(), frozenset({"a"})]
        expected = {(0, 2), (1, 3)}
        assert naive_join(token_sets, 0.5) == expected
        assert prefix_join(token_sets, 0.5) == expected

    def test_join_methods_on_the_overlap_floor_edge(self):
        from repro.verify import overlap_floor_instance

        table, threshold = overlap_floor_instance()
        check_join_methods(table, threshold)


class TestEntityQualityOracle:
    def test_agrees_on_candidate_pairs(self, small_table):
        from repro.similarity import similar_pairs
        from repro.verify import check_entity_quality

        check_entity_quality(small_table, similar_pairs(small_table, 0.25))

    def test_catches_a_scorer_that_ignores_duplicates(self, monkeypatch, small_table):
        from repro.core import metrics
        from repro.verify import check_entity_quality

        original = metrics.entity_quality

        def counts_repeats(matches, table):
            report = original(matches, table)
            extra = len(matches) - report.true_positives - report.false_positives
            return dataclasses.replace(
                report, false_positives=report.false_positives + extra
            )

        monkeypatch.setattr(metrics, "entity_quality", counts_repeats)
        with pytest.raises(VerificationError, match="both orientations"):
            check_entity_quality(small_table, [(0, 1), (2, 3)])


class TestStreamEmptyTokenRecords:
    def test_stream_pairs_empty_records_like_the_join(self):
        from repro.verify import check_stream_equivalence, empty_token_table

        check_stream_equivalence(empty_token_table(), seed=0)

    def test_single_batch_tier_catches_dropped_empty_pairs(self, monkeypatch):
        """A stream join that skips empty token sets again fails tier 1."""
        from repro.similarity.batch import PostingJoin
        from repro.stream import service
        from repro.verify import check_stream_equivalence, empty_token_table

        class SkipsEmpty(PostingJoin):
            def extend(self, token_sets, probe=True):
                pairs = super().extend(token_sets, probe=probe)
                return [(a, b) for a, b in pairs if self.sizes[a] and self.sizes[b]]

        monkeypatch.setattr(service, "PostingJoin", SkipsEmpty)
        with pytest.raises(VerificationError, match="single-batch"):
            check_stream_equivalence(empty_token_table(), seed=0)


class TestCrowdAggregationOracle:
    @pytest.mark.parametrize("mode", ["weighted", "majority"])
    def test_platform_matches_naive_recompute(self, mode):
        pairs, _ = random_instance(0)
        truth = {pair: bool(index % 2) for index, pair in enumerate(pairs)}
        crowd = SimulatedCrowd(
            truth,
            pool=WorkerPool(accuracy_range="80", seed=11),
            assignments=5,
            aggregation=mode,
        )
        check_crowd_aggregation(crowd, pairs)

    def test_oracle_catches_weight_blind_votes(self, monkeypatch):
        from repro.crowd import platform
        from repro.crowd.aggregate import majority_vote

        monkeypatch.setattr(
            platform, "weighted_majority_vote", lambda votes, weights: majority_vote(votes)
        )
        pairs, _ = random_instance(0)
        truth = {pair: bool(index % 2) for index, pair in enumerate(pairs)}
        crowd = SimulatedCrowd(
            truth,
            pool=WorkerPool(accuracy_range="80", seed=11),
            assignments=5,
            aggregation="weighted",
        )
        with pytest.raises(VerificationError):
            check_crowd_aggregation(crowd, pairs)


class TestServeEquivalenceOracle:
    def test_served_sessions_leave_no_manifest_open(self, small_table):
        """Both tiers drain their apps, so no session's snapshot journal is
        left for the garbage collector to close."""
        import gc
        import warnings

        from repro.verify.oracles import check_serve_equivalence

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            check_serve_equivalence(small_table)
            gc.collect()
        leaked = [
            str(warning.message)
            for warning in caught
            if issubclass(warning.category, ResourceWarning)
            and "MANIFEST.jsonl" in str(warning.message)
        ]
        assert leaked == []
