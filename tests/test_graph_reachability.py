"""Tests for the packed-bitset reachability index."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError
from repro.graph import (
    Color,
    ColoringState,
    GroupedGraph,
    PairGraph,
    ReachabilityIndex,
    blocked_dominance_lists,
    construction,
    lowest_set_bit,
    pack_mask,
    split_grouping,
    unpack_mask,
)
from repro.verify import check_reachability_index
from repro.verify.oracles import NaivePairGraph

from conftest import random_vectors


def make_graph(seed: int, n: int, m: int = 3) -> PairGraph:
    vectors = random_vectors(seed, n, m)
    pairs = [(2 * i, 2 * i + 1) for i in range(n)]
    return PairGraph(pairs, vectors)


def make_grouped_graph(seed: int, n: int, m: int = 3) -> GroupedGraph:
    """Exactly *n* groups: base vertices ``2g`` and ``2g + 1`` form group g."""
    base = make_graph(seed, 2 * n, m)
    return GroupedGraph(base, [[2 * g, 2 * g + 1] for g in range(n)])


#: Sizes around byte (8) and dominance-tile (256 rows) boundaries.
TILE_SIZES = [255, 256, 257, 520, 1031]


class TestPackedBits:
    @given(st.lists(st.booleans(), max_size=40))
    def test_pack_unpack_round_trip(self, bits):
        mask = np.array(bits, dtype=bool)
        assert np.array_equal(unpack_mask(pack_mask(mask), len(bits)), mask)

    @given(st.lists(st.booleans(), max_size=40))
    def test_lowest_set_bit_matches_argmax(self, bits):
        mask = np.array(bits, dtype=bool)
        expected = int(np.argmax(mask)) if mask.any() else -1
        assert lowest_set_bit(pack_mask(mask)) == expected

    def test_lowest_set_bit_empty_vector(self):
        assert lowest_set_bit(np.zeros(0, dtype=np.uint8)) == -1


class TestIndexMasks:
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65, 200, *TILE_SIZES])
    def test_masks_match_graph_broadcast(self, n):
        """Unpacked index rows must be byte-identical to the graph's own
        float-broadcast masks — at byte- and tile-boundary sizes."""
        check_reachability_index(make_graph(seed=n, n=n))

    @pytest.mark.parametrize("n", [1, 9, *TILE_SIZES])
    def test_grouped_masks_at_tile_boundaries(self, n):
        """Distinct dominance operands (lower vs upper bounds) across tiles."""
        grouped = make_grouped_graph(seed=n, n=n)
        assert len(grouped) == n
        check_reachability_index(grouped)

    def test_grouped_graph_masks(self):
        vectors = random_vectors(3, 60, 3)
        pairs = [(2 * i, 2 * i + 1) for i in range(60)]
        grouped = GroupedGraph(PairGraph(pairs, vectors), split_grouping(vectors, 0.1))
        check_reachability_index(grouped)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=1, max_value=40).map(lambda k: 8 * k),
        st.booleans(),
        st.integers(min_value=0, max_value=999),
    )
    def test_cached_lists_equal_blocked_lists(self, n, block_size, grouped, seed):
        """The lists one build pass caches are the blocked kernel's lists,
        whatever tile height (a multiple of 8) the build uses."""
        graph = make_grouped_graph(seed, n) if grouped else make_graph(seed, n)
        with mock.patch.object(construction, "DEFAULT_BLOCK_SIZE", block_size):
            index = graph.build_reachability()
        cached = graph.adjacency()
        expected = blocked_dominance_lists(*graph._dominance_operands())
        assert len(cached) == len(expected) == n
        for fast, reference in zip(cached, expected):
            assert fast.dtype == reference.dtype
            assert np.array_equal(fast, reference)
        for v in range(n):
            assert np.array_equal(np.flatnonzero(index.descendant_mask(v)), cached[v])

    def test_build_over_attached_adjacency_keeps_lists(self):
        """Lists cached before the build (a caller ran ``adjacency()``
        first) stay the cached object; the build only packs bits."""
        graph = make_graph(seed=6, n=300)
        attached = graph.adjacency()
        index = graph.build_reachability()
        assert graph.adjacency() is attached
        check_reachability_index(graph)
        assert index is graph.reachability

    def test_row_bounds_checked(self):
        index = make_graph(seed=0, n=5).build_reachability()
        with pytest.raises(GraphError):
            index.descendant_row(5)
        with pytest.raises(GraphError):
            index.ancestor_row(-1)


class TestGating:
    def test_zero_budget_skips_index(self):
        graph = make_graph(seed=1, n=10)
        assert graph.build_reachability(max_bytes=0) is None
        assert graph.reachability is None

    def test_naive_graph_never_indexed(self):
        """The oracle twins expose no dominance operands, so they stay on
        the pure reference paths."""
        vectors = random_vectors(2, 12, 3)
        naive = NaivePairGraph([(2 * i, 2 * i + 1) for i in range(12)], vectors)
        assert naive.build_reachability() is None

    def test_index_built_once_and_cached(self):
        graph = make_graph(seed=4, n=20)
        first = graph.build_reachability()
        assert first is graph.build_reachability()
        assert first is graph.reachability

    def test_estimated_bytes_matches_actual(self):
        graph = make_graph(seed=5, n=33)
        index = graph.build_reachability()
        assert index.nbytes() == ReachabilityIndex.estimated_bytes(33)


class TestColoringEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=999))
    def test_propagation_identical_with_and_without_index(self, seed):
        """apply_answer through the packed index colors exactly the same
        vertices as the reference mask-broadcast path."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        plain = make_graph(seed=seed, n=n)
        indexed = make_graph(seed=seed, n=n)
        assert indexed.build_reachability() is not None
        ref, fast = ColoringState(plain), ColoringState(indexed)
        for _ in range(int(rng.integers(1, 12))):
            vertex = int(rng.integers(0, n))
            answer = bool(rng.integers(0, 2))
            ref.apply_answer(vertex, answer)
            fast.apply_answer(vertex, answer)
        for v in range(n):
            assert ref.color_of(v) == fast.color_of(v)
        assert ref.color_of(0) in (Color.UNCOLORED, Color.GREEN, Color.RED, Color.BLUE)
