"""Property-based correctness tests for selection and coloring.

The central soundness property of the whole framework (§5.1): if the ground
truth is *monotone* with respect to the partial order — every pair
dominating a match is a match, every pair dominated by a non-match is a
non-match — then any selector driven by a perfect oracle must label every
pair exactly.  Monotone truths are generated as random linear threshold
functions, which are monotone by construction.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crowd import PerfectCrowd
from repro.graph import Color, ColoringState, GroupedGraph, PairGraph, split_grouping
from repro.selection import (
    MultiPathSelector,
    RandomSelector,
    SinglePathSelector,
    TopoSortSelector,
)

from conftest import random_vectors


def monotone_instance(seed: int, n: int, m: int):
    """Random vectors plus a monotone ground truth (linear threshold)."""
    vectors = random_vectors(seed, n, m)
    rng = np.random.default_rng(seed + 1)
    weights = rng.random(m) + 0.05
    threshold = float(np.quantile(vectors @ weights, rng.random() * 0.8 + 0.1))
    labels = vectors @ weights > threshold
    pairs = [(i, i + 10_000) for i in range(n)]
    truth = {pair: bool(label) for pair, label in zip(pairs, labels)}
    return pairs, vectors, truth


INSTANCES = st.tuples(
    st.integers(min_value=0, max_value=9999),
    st.integers(min_value=1, max_value=45),
    st.integers(min_value=1, max_value=4),
)

SELECTORS = [RandomSelector, SinglePathSelector, MultiPathSelector, TopoSortSelector]


class TestMonotoneSoundness:
    @settings(max_examples=15, deadline=None)
    @given(INSTANCES, st.sampled_from(SELECTORS))
    def test_oracle_labels_exactly(self, instance, selector_class):
        seed, n, m = instance
        pairs, vectors, truth = monotone_instance(seed, n, m)
        graph = PairGraph(pairs, vectors)
        result = selector_class(seed=seed).run(graph, PerfectCrowd(truth).session())
        assert result.labels == truth

    @settings(max_examples=10, deadline=None)
    @given(INSTANCES)
    def test_grouped_errors_bounded_by_mixed_groups(self, instance):
        """Grouping can only mislabel pairs inside truth-mixed groups."""
        seed, n, m = instance
        pairs, vectors, truth = monotone_instance(seed, n, m)
        base = PairGraph(pairs, vectors)
        grouping = split_grouping(vectors, 0.15)
        grouped = GroupedGraph(base, grouping)
        result = TopoSortSelector(seed=seed).run(
            grouped, PerfectCrowd(truth).session()
        )
        mixed_pairs = set()
        for group in grouping:
            group_truths = {truth[pairs[v]] for v in group}
            if len(group_truths) > 1:
                mixed_pairs.update(pairs[v] for v in group)
        wrong = {pair for pair, label in result.labels.items() if truth[pair] != label}
        assert wrong <= mixed_pairs

    @settings(max_examples=10, deadline=None)
    @given(INSTANCES)
    def test_questions_never_exceed_vertices(self, instance):
        seed, n, m = instance
        pairs, vectors, truth = monotone_instance(seed, n, m)
        graph = PairGraph(pairs, vectors)
        for selector_class in SELECTORS:
            result = selector_class(seed=seed).run(
                graph, PerfectCrowd(truth).session()
            )
            assert result.questions <= n


class TestColoringInvariants:
    @settings(max_examples=15, deadline=None)
    @given(INSTANCES, st.integers(min_value=0, max_value=9999))
    def test_truthful_answers_color_truthfully(self, instance, ask_seed):
        """After ANY sequence of truthful answers on a monotone instance,
        every GREEN/RED vertex agrees with the truth."""
        seed, n, m = instance
        pairs, vectors, truth = monotone_instance(seed, n, m)
        graph = PairGraph(pairs, vectors)
        state = ColoringState(graph)
        rng = np.random.default_rng(ask_seed)
        order = rng.permutation(n)
        for vertex in order[: max(1, n // 2)]:
            state.apply_round([int(vertex)], [truth[pairs[int(vertex)]]])
        for vertex in range(n):
            color = state.color_of(vertex)
            if color == Color.GREEN:
                assert truth[pairs[vertex]] is True
            elif color == Color.RED:
                assert truth[pairs[vertex]] is False

    @settings(max_examples=15, deadline=None)
    @given(INSTANCES, st.integers(min_value=0, max_value=9999))
    def test_asked_vertices_always_pinned(self, instance, ask_seed):
        """Crowd-answered vertices never change color afterwards."""
        seed, n, m = instance
        pairs, vectors, truth = monotone_instance(seed, n, m)
        graph = PairGraph(pairs, vectors)
        state = ColoringState(graph)
        rng = np.random.default_rng(ask_seed)
        pinned: dict[int, Color] = {}
        for vertex in rng.permutation(n)[: max(1, n // 3)]:
            vertex = int(vertex)
            answer = bool(rng.random() < 0.5)  # adversarially random answers
            state.apply_round([vertex], [answer])
            pinned[vertex] = Color.GREEN if answer else Color.RED
            for earlier, color in pinned.items():
                assert state.color_of(earlier) == color

    @settings(max_examples=10, deadline=None)
    @given(INSTANCES)
    def test_progress_guarantee(self, instance):
        """Coloring the whole graph needs at most |V| answers."""
        seed, n, m = instance
        pairs, vectors, truth = monotone_instance(seed, n, m)
        graph = PairGraph(pairs, vectors)
        state = ColoringState(graph)
        answers = 0
        while not state.is_complete():
            vertex = int(state.uncolored()[0])
            state.apply_round([vertex], [truth[pairs[vertex]]])
            answers += 1
        assert answers <= n


class TestAdversarialCrowd:
    def test_always_lying_crowd_still_terminates(self, small_bundle):
        """A crowd that always answers wrong cannot hang any selector."""
        _, pairs, vectors, truth = small_bundle
        lies = {pair: not answer for pair, answer in truth.items()}
        graph = PairGraph(pairs, vectors)
        for selector_class in SELECTORS:
            result = selector_class(seed=0).run(
                graph, PerfectCrowd(lies).session()
            )
            assert result.state.is_complete()
            # Everything it asserted is exactly inverted where asked.
            assert set(result.labels) == set(truth)

    def test_contradictory_crowd_resolved_by_votes(self):
        """v0 > v1 > v2; crowd says v2 GREEN but v0 RED: the middle vertex
        is decided by majority voting, not left uncolored."""
        pairs = [(0, 1), (2, 3), (4, 5)]
        vectors = np.array([[0.9, 0.9], [0.5, 0.5], [0.1, 0.1]])
        graph = PairGraph(pairs, vectors)
        state = ColoringState(graph)
        state.apply_round([2], [True])  # votes 0, 1 green
        state.apply_round([0], [False])  # pinned red itself; votes 1, 2 red
        assert state.color_of(1) in (Color.GREEN, Color.RED)
        assert state.is_complete()


class TestComplexityBounds:
    @settings(max_examples=12, deadline=None)
    @given(INSTANCES)
    def test_single_path_question_bound(self, instance):
        """§5.2: SinglePath asks O(B log |V|) questions on monotone data —
        check the concrete bound B * (floor(log2 |V|) + 2)."""
        seed, n, m = instance
        pairs, vectors, truth = monotone_instance(seed, n, m)
        graph = PairGraph(pairs, vectors)
        from repro.graph.matching import minimum_path_cover, restricted_adjacency

        active = np.ones(n, dtype=bool)
        sub, _ = restricted_adjacency(graph.adjacency(), active)
        width = len(minimum_path_cover(sub))
        result = SinglePathSelector(seed=seed).run(
            graph, PerfectCrowd(truth).session()
        )
        bound = width * (int(np.log2(max(n, 2))) + 2)
        assert result.questions <= bound

    @settings(max_examples=12, deadline=None)
    @given(INSTANCES)
    def test_boundary_vertices_must_be_asked(self, instance):
        """§5.1: any algorithm must ask at least ... the number of GREEN
        boundary vertices with no GREEN descendants is a simple lower
        bound; SinglePath respects it."""
        seed, n, m = instance
        pairs, vectors, truth = monotone_instance(seed, n, m)
        graph = PairGraph(pairs, vectors)
        labels = np.array([truth[pair] for pair in pairs])
        # Minimal GREEN vertices: matches none of whose children is a match.
        minimal_greens = 0
        for vertex in range(n):
            if labels[vertex]:
                children = graph.descendants(vertex)
                if not np.any(labels[children]):
                    minimal_greens += 1
        # They form an antichain of boundary vertices; asking fewer total
        # questions than an antichain's size cannot color it (each answer
        # colors at most one of them... via its own vertex).
        result = SinglePathSelector(seed=seed).run(
            graph, PerfectCrowd(truth).session()
        )
        # Not a strict theorem for *our* run (inference helps), but the
        # paper's bound says boundary vertices themselves must be asked:
        # every minimal GREEN vertex must appear among the asked ones OR
        # have been... in fact with truthful answers the only way a minimal
        # GREEN vertex turns GREEN is being asked (no descendant is GREEN).
        asked = set(result.state.asked_order)
        for vertex in range(n):
            if labels[vertex]:
                children = graph.descendants(vertex)
                if not np.any(labels[children]):
                    assert vertex in asked
