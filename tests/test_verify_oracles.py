"""Differential oracles: production paths vs their brute-force twins."""

from __future__ import annotations

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
    check_transitive_closure,
    monotone_truth,
    naive_dominance_edges,
    naive_transitive_closure,
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
        from repro.graph.coloring import Color, ColoringState

        def mutated(self, vertex, answer, propagate=True):
            self.graph._check_vertex(vertex)
            self.asked_order.append(vertex)
            self.colors[vertex] = Color.GREEN if answer else Color.RED
            self._pinned[vertex] = True
            if not propagate:
                return
            if answer:
                targets = self.graph.descendant_mask(vertex)
            else:
                targets = self.graph.ancestor_mask(vertex)
                self._red_votes[targets] += 1
                self._refresh(targets)
                return
            self._green_votes[targets] += 1
            self._refresh(targets)

        monkeypatch.setattr(ColoringState, "apply_answer", mutated)
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
        for seed in (0, 1, 2):
            check_join_methods(small_table, 0.25, seed=seed)

    def test_join_oracles_pair_empty_records(self):
        from repro.verify import naive_join, prefix_join

        token_sets = [frozenset(), frozenset({"a", "b"}), frozenset(), frozenset({"a"})]
        expected = {(0, 2), (1, 3)}
        assert naive_join(token_sets, 0.5) == expected
        assert prefix_join(token_sets, 0.5) == expected


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
