"""Edge cases and failure injection across the stack."""

import numpy as np
import pytest

from repro.crowd import PerfectCrowd
from repro.exceptions import CrowdError
from repro.graph import Color, ColoringState, PairGraph, split_grouping
from repro.selection import ErrorPolicy, TopoSortSelector, resolve_undecided_vertices


class TestDegenerateGraphs:
    def test_empty_graph_run_is_noop(self):
        graph = PairGraph([], np.empty((0, 2)))
        result = TopoSortSelector().run(graph, PerfectCrowd({}).session())
        assert result.labels == {}
        assert result.questions == 0
        assert result.iterations == 0

    def test_single_vertex_graph(self):
        graph = PairGraph([(0, 1)], np.array([[0.5, 0.5]]))
        result = TopoSortSelector().run(
            graph, PerfectCrowd({(0, 1): True}).session()
        )
        assert result.labels == {(0, 1): True}
        assert result.questions == 1

    def test_all_equal_vectors(self):
        """Equal vectors are mutually incomparable: every vertex is asked."""
        pairs = [(i, i + 100) for i in range(6)]
        graph = PairGraph(pairs, np.tile([0.5, 0.5], (6, 1)))
        truth = {pair: bool(i % 2) for i, pair in enumerate(pairs)}
        result = TopoSortSelector().run(graph, PerfectCrowd(truth).session())
        assert result.questions == 6
        assert result.labels == truth

    def test_empty_coloring_state_complete(self):
        graph = PairGraph([], np.empty((0, 1)))
        assert ColoringState(graph).is_complete()

    def test_grouping_single_vertex(self):
        assert split_grouping(np.array([[0.3, 0.7]]), 0.1) == [[0]]


class TestCrowdFailures:
    def test_asking_unknown_pair_propagates(self):
        graph = PairGraph([(0, 1)], np.array([[0.5]]))
        crowd = PerfectCrowd({(8, 9): True})  # wrong universe
        with pytest.raises(CrowdError):
            TopoSortSelector().run(graph, crowd.session())

    def test_free_crowd_costs_nothing(self):
        crowd = PerfectCrowd({(0, 1): True})
        session = crowd.session(cents_per_hit=0)
        session.ask((0, 1))
        assert session.cost_cents == 0
        assert session.hits > 0

    def test_session_reuse_across_selectors_is_cumulative(self):
        truth = {(0, 1): True, (2, 3): False}
        graph_a = PairGraph([(0, 1)], np.array([[0.9]]))
        graph_b = PairGraph([(2, 3)], np.array([[0.1]]))
        session = PerfectCrowd(truth).session()
        TopoSortSelector().run(graph_a, session)
        TopoSortSelector().run(graph_b, session)
        assert session.questions_asked == 2
        assert session.iterations == 2


class TestHistogramFallbacks:
    def test_all_blue_no_training_uses_similarity(self):
        vectors = np.array([[0.9, 0.9], [0.1, 0.1]])
        pairs = [(0, 1), (2, 3)]
        graph = PairGraph(pairs, vectors)
        state = ColoringState(graph)
        state.apply_round([0], [None])
        state.apply_round([1], [None])
        decided = resolve_undecided_vertices(
            graph, state, state.blue_vertices(), ErrorPolicy()
        )
        assert decided[(0, 1)] is True  # weighted similarity 0.9 > 0.5
        assert decided[(2, 3)] is False

    def test_red_only_training_still_sensible(self):
        """With only RED evidence, high-similarity unknowns fall back to the
        nearest bin; low ones stay RED."""
        vectors = np.array([[0.2, 0.2], [0.25, 0.25], [0.3, 0.3], [0.95, 0.95]])
        pairs = [(i, i + 10) for i in range(4)]
        graph = PairGraph(pairs, vectors)
        state = ColoringState(graph)
        for vertex in (0, 1, 2):
            state.force_color(vertex, Color.RED)
        state.colors[3] = Color.BLUE
        decided = resolve_undecided_vertices(
            graph, state, np.array([3]), ErrorPolicy(num_bins=4)
        )
        # No GREEN training evidence exists -> similarity fallback applies.
        assert decided[pairs[3]] is True


class TestBudgetEdges:
    def test_budget_one(self, small_bundle):
        _, pairs, vectors, truth = small_bundle
        graph = PairGraph(pairs, vectors)
        result = TopoSortSelector().run(
            graph, PerfectCrowd(truth).session(), budget=1
        )
        assert result.questions == 1
        assert set(result.labels) == set(truth)

    def test_budget_larger_than_needed(self, small_bundle):
        _, pairs, vectors, truth = small_bundle
        graph = PairGraph(pairs, vectors)
        unlimited = TopoSortSelector().run(graph, PerfectCrowd(truth).session())
        capped = TopoSortSelector().run(
            graph, PerfectCrowd(truth).session(), budget=10 ** 6
        )
        assert capped.questions == unlimited.questions
