"""Tests for the coloring engine (§3.2) and conflict voting (§5.3.1)."""

import numpy as np
import pytest

from repro.graph import Color, ColoringState, GroupedGraph, PairGraph, split_grouping


@pytest.fixture()
def chain():
    """v0 > v1 > v2 > v3, plus incomparable v4."""
    pairs = [(0, 1), (0, 2), (0, 3), (0, 4), (5, 6)]
    vectors = np.array(
        [[0.9, 0.9], [0.7, 0.7], [0.5, 0.5], [0.3, 0.3], [1.0, 0.0]]
    )
    return PairGraph(pairs, vectors)


class TestBasicColoring:
    def test_initially_uncolored(self, chain):
        state = ColoringState(chain)
        assert not state.is_complete()
        assert len(state.uncolored()) == 5

    def test_green_propagates_to_ancestors(self, chain):
        state = ColoringState(chain)
        state.apply_round([2], [True])
        assert state.color_of(2) == Color.GREEN
        assert state.color_of(0) == Color.GREEN
        assert state.color_of(1) == Color.GREEN
        assert state.color_of(3) == Color.UNCOLORED
        assert state.color_of(4) == Color.UNCOLORED

    def test_red_propagates_to_descendants(self, chain):
        state = ColoringState(chain)
        state.apply_round([1], [False])
        assert state.color_of(1) == Color.RED
        assert state.color_of(2) == Color.RED
        assert state.color_of(3) == Color.RED
        assert state.color_of(0) == Color.UNCOLORED

    def test_counting(self, chain):
        state = ColoringState(chain)
        state.apply_round([2], [True])
        assert state.num_asked == 1
        assert state.num_deduced == 2

    def test_complete_detection(self, chain):
        state = ColoringState(chain)
        state.apply_round([3], [True])  # colors 0..3 green
        state.apply_round([4], [False])
        assert state.is_complete()


class TestConflictVoting:
    def test_asked_vertices_are_pinned(self, chain):
        state = ColoringState(chain)
        state.apply_round([1], [False])  # red, descendants red
        state.apply_round([3], [True])  # contradicting green from below
        # 3 is pinned to its own crowd answer.
        assert state.color_of(3) == Color.GREEN
        # 1 keeps its own answer too.
        assert state.color_of(1) == Color.RED

    def test_majority_voting_on_inferred(self, chain):
        state = ColoringState(chain)
        # Two green votes for vertex 0 (from 1 and 2), then one red... red
        # answers vote descendants, so vote green twice via 1 and 2:
        state.apply_round([2], [True])  # 0,1 green votes
        state.apply_round([1], [True])  # 0 another green vote (1 now pinned)
        assert state.color_of(0) == Color.GREEN

    def test_tie_resolves_to_red(self):
        # Diamond: a > m, b > m is impossible for ties on one vertex via
        # green/red; build x > y and z > y; ask x red (y red vote), ask z
        # green -> votes ancestors, not y.  Instead: y's votes come from a
        # red above and a green below.
        pairs = [(0, 1), (2, 3), (4, 5)]
        vectors = np.array([[0.9, 0.9], [0.5, 0.5], [0.1, 0.1]])
        graph = PairGraph(pairs, vectors)
        state = ColoringState(graph)
        state.apply_round([0], [False])  # votes 1, 2 red
        state.apply_round([2], [True])  # votes 1, 0 green -> vertex 1 tied
        assert state.color_of(1) == Color.RED

    def test_majority_flips_inferred_color(self):
        """A 2-1 vote overrides the first inference."""
        # Vertices 0,1,2 all dominate 3.
        vectors = np.array([[0.9, 0.9], [0.8, 0.8], [0.7, 0.7], [0.1, 0.1]])
        graph = PairGraph([(0, 1), (2, 3), (4, 5), (6, 7)], vectors)
        state = ColoringState(graph)
        state.apply_round([2], [False])  # 3 red (1 vote)
        # Green answers vote ancestors; to vote 3 green we need answers on
        # vertices dominated by 3 — none exist, so check the red persists.
        assert state.color_of(3) == Color.RED


class TestBlueAndForce:
    def test_blue_answer_pins_without_inference(self, chain):
        state = ColoringState(chain)
        state.apply_round([1], [None])
        assert state.color_of(1) == Color.BLUE
        assert state.color_of(2) == Color.UNCOLORED
        assert list(state.blue_vertices()) == [1]
        assert state.num_asked == 1

    def test_blue_counts_as_colored(self, chain):
        state = ColoringState(chain)
        for vertex in range(5):
            state.apply_round([vertex], [None])
        assert state.is_complete()

    def test_force_color(self, chain):
        state = ColoringState(chain)
        state.force_color(4, Color.GREEN)
        assert state.color_of(4) == Color.GREEN
        assert state.num_asked == 0


class TestLabels:
    def test_pair_labels_cover_colored_only(self, chain):
        state = ColoringState(chain)
        state.apply_round([2], [True])
        labels = state.pair_labels()
        assert labels[(0, 1)] is True  # vertex 0
        assert labels[(0, 3)] is True  # vertex 2 itself
        assert (0, 4) not in labels  # vertex 3 uncolored
        assert (5, 6) not in labels

    @pytest.mark.parametrize("grouped", [False, True])
    def test_pair_labels_match_the_per_vertex_loop(self, grouped):
        """Same items in the same order as reading member_pairs per vertex,
        duplicate pairs included (a later vertex's decision wins)."""
        rng = np.random.default_rng(3)
        vectors = np.round(rng.random((60, 3)) * 4) / 4
        pairs = [(k % 45, 100 + k % 45) for k in range(60)]  # 15 repeats
        graph = PairGraph(pairs, vectors)
        if grouped:
            graph = GroupedGraph(graph, split_grouping(vectors, 0.3))
        state = ColoringState(graph)
        state.colors[:] = rng.integers(0, 4, len(graph))
        expected = {}
        for vertex in range(len(graph)):
            color = state.color_of(vertex)
            if color in (Color.GREEN, Color.RED):
                for pair in graph.member_pairs(vertex):
                    expected[pair] = color == Color.GREEN
        assert list(state.pair_labels().items()) == list(expected.items())

    def test_validate_against_truth(self, chain):
        state = ColoringState(chain)
        state.apply_round([2], [True])
        truth = {(0, 1): True, (0, 2): True, (0, 3): False}
        assert state.validate_against(truth) == pytest.approx(2 / 3)


class TestRoundUpdate:
    """``apply_round`` must equal :class:`ReferenceColoring` applying the
    same answers one at a time."""

    @staticmethod
    def _rounds(n, seed):
        """Random rounds over a shuffled vertex order: GREEN, RED and BLUE
        answers, comparable vertices within a round, and a final round cut
        short the way a question budget truncates one."""
        rng = np.random.default_rng(seed)
        order = rng.permutation(n).tolist()
        cuts = sorted(rng.choice(np.arange(1, n), size=min(4, n - 1), replace=False).tolist())
        rounds = [order[a:b] for a, b in zip([0] + cuts, cuts + [n])]
        rounds[-1] = rounds[-1][: max(1, len(rounds[-1]) // 2)]
        codes = (True, False, None)
        return [
            (vertices, [codes[int(c)] for c in rng.choice(3, size=len(vertices), p=(0.45, 0.45, 0.1))])
            for vertices in rounds
        ]

    @staticmethod
    def _reference(pairs, vectors):
        from repro.verify import ReferenceColoring, naive_dominance_edges

        return ReferenceColoring(naive_dominance_edges(vectors), len(pairs))

    @staticmethod
    def _apply(reference, vertices, answers):
        colors = {True: Color.GREEN, False: Color.RED, None: Color.BLUE}
        for vertex, answer in zip(vertices, answers):
            reference.apply(vertex, colors[answer])

    @staticmethod
    def _assert_same(state, reference):
        assert state.colors.tolist() == reference.colors()
        assert state._green_votes.tolist() == reference.green_votes
        assert state._red_votes.tolist() == reference.red_votes
        assert state.asked_order == list(reference.pinned)

    @pytest.mark.parametrize("n", [7, 8, 9, 255, 256, 257])
    @pytest.mark.parametrize("indexed", [True, False])
    def test_matches_the_per_answer_loop(self, n, indexed):
        from repro.verify import random_instance

        pairs, vectors = random_instance(n, n)
        graph = PairGraph(pairs, vectors)
        if indexed:
            assert graph.build_reachability() is not None
        state = ColoringState(graph)
        reference = self._reference(pairs, vectors)
        for vertices, answers in self._rounds(n, seed=n):
            state.apply_round(vertices, answers)
            self._apply(reference, vertices, answers)
            self._assert_same(state, reference)

    def test_rounds_larger_than_one_unpack_chunk(self, monkeypatch):
        from repro.graph import reachability
        from repro.verify import random_instance

        pairs, vectors = random_instance(3, 257)
        graph = PairGraph(pairs, vectors)
        graph.build_reachability()
        reference = self._reference(pairs, vectors)
        whole = ColoringState(graph)
        for vertices, answers in self._rounds(257, seed=3):
            whole.apply_round(vertices, answers)
        monkeypatch.setattr(reachability, "UNPACK_CHUNK_BYTES", 3 * 257)  # 3 rows
        chunked = ColoringState(graph)
        for vertices, answers in self._rounds(257, seed=3):
            assert len(vertices) > 3
            chunked.apply_round(vertices, answers)
            self._apply(reference, vertices, answers)
            self._assert_same(chunked, reference)
        self._assert_same(whole, reference)

    def test_blue_only_round_pins_without_votes(self, chain):
        state = ColoringState(chain)
        state.apply_round([1, 2], [None, None])
        assert state.color_of(1) == Color.BLUE and state.color_of(2) == Color.BLUE
        assert not state._green_votes.any() and not state._red_votes.any()

    def test_rejects_misaligned_answers(self, chain):
        from repro.exceptions import GraphError

        with pytest.raises(GraphError):
            ColoringState(chain).apply_round([0, 1], [True])
        with pytest.raises(GraphError):
            ColoringState(chain).apply_round([9], [True])
