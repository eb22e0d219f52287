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
    construction,
    pack_mask,
    split_grouping,
    unpack_mask,
)
from repro.verify import (
    ReferenceRelation,
    check_reachability_index,
    decline_reachability,
    reference_relation,
)
from repro.verify.oracles import NaivePairGraph
from repro.verify.relation import blocked_dominance_lists

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


class TestIndexMasks:
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65, 200, *TILE_SIZES])
    def test_masks_match_graph_broadcast(self, n):
        """Unpacked index rows must be byte-identical to the reference
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
        """An index built at any row-block height (a multiple of 8) reads
        back the reference tile lists, which share no code with it."""
        graph = make_grouped_graph(seed, n) if grouped else make_graph(seed, n)
        with mock.patch.object(construction, "DEFAULT_BLOCK_SIZE", block_size):
            index = graph.reachability
        expected = blocked_dominance_lists(*graph._dominance_operands())
        assert index.num_vertices == len(expected) == n
        for v, reference in enumerate(expected):
            assert np.array_equal(index.descendants(v), reference)
            assert np.array_equal(np.flatnonzero(index.descendant_mask(v)), reference)

    def test_row_bounds_checked(self):
        index = make_graph(seed=0, n=5).reachability
        with pytest.raises(GraphError):
            index.descendant_mask(5)
        with pytest.raises(GraphError):
            index.ancestor_mask(-1)
        with pytest.raises(GraphError):
            index.row_counts(np.array([0, 5]), ancestors=True)


class TestGating:
    def test_naive_graph_never_indexed(self):
        """The oracle twins hold a reference relation built from Python
        comparisons, so they stay on the pure reference paths."""
        vectors = random_vectors(2, 12, 3)
        naive = NaivePairGraph([(2 * i, 2 * i + 1) for i in range(12)], vectors)
        assert isinstance(naive.reachability, ReferenceRelation)

    def test_index_built_once_and_cached(self):
        graph = make_graph(seed=4, n=20)
        first = graph.reachability
        assert first is graph.reachability


class TestColoringEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=999))
    def test_propagation_identical_with_and_without_index(self, seed):
        """apply_round counting votes from the packed index's rows colors
        exactly the same vertices as the reference relation's mask sums."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        plain = decline_reachability(make_graph(seed=seed, n=n))
        indexed = make_graph(seed=seed, n=n)
        ref, fast = ColoringState(plain), ColoringState(indexed)
        for _ in range(int(rng.integers(1, 6))):
            size = int(rng.integers(1, n + 1))
            vertices = rng.choice(n, size=size, replace=False).tolist()
            answers = [(None, True, False)[k] for k in rng.integers(0, 3, size)]
            ref.apply_round(vertices, answers)
            fast.apply_round(vertices, answers)
        assert np.array_equal(ref.colors, fast.colors)
        assert np.array_equal(ref._green_votes, fast._green_votes)
        assert np.array_equal(ref._red_votes, fast._red_votes)
        assert ref.asked_order == fast.asked_order
        assert ref.color_of(0) in (Color.UNCOLORED, Color.GREEN, Color.RED, Color.BLUE)


def quantized_graph(seed: int, n: int, grouped: bool, m: int = 3):
    """A pair or grouped graph with exactly *n* vertices on a coarse grid.

    Values on {0, 1/3, 2/3, 1} give duplicate rows, chains and antichains;
    a coin flip turns each zero into ``-0.0``.  The grouped graph pairs
    base vertices ``2g`` and ``2g + 1`` into group g.
    """
    rng = np.random.default_rng(seed)
    rows = 2 * n if grouped else n
    vectors = rng.integers(0, 4, (rows, m)) / 3.0
    vectors[(vectors == 0.0) & (rng.random(vectors.shape) < 0.5)] = -0.0
    base = PairGraph([(2 * i, 2 * i + 1) for i in range(rows)], vectors)
    if not grouped:
        return base
    return GroupedGraph(base, [[2 * g, 2 * g + 1] for g in range(n)])


#: Vertex counts for the order properties: around a byte, and around the
#: first tile boundary.
ORDER_SIZES = st.one_of(st.integers(0, 20), st.integers(250, 262))


class TestLinearExtensionOrder:
    """The index is stored in one linear extension and read in vertex ids."""

    @settings(max_examples=20, deadline=None)
    @given(ORDER_SIZES, st.booleans(), st.integers(0, 9999))
    def test_masks_equal_the_graph_masks(self, n, grouped, seed):
        graph = quantized_graph(seed, n, grouped)
        index = graph.reachability
        reference = reference_relation(graph)
        for v in range(n):
            assert np.array_equal(index.descendant_mask(v), reference.descendant_mask(v))
            assert np.array_equal(index.ancestor_mask(v), reference.ancestor_mask(v))
            assert np.array_equal(index.descendants(v), reference.descendants(v))
            assert np.array_equal(index.ancestors(v), reference.ancestors(v))

    @settings(max_examples=20, deadline=None)
    @given(ORDER_SIZES, st.booleans(), st.integers(0, 9999))
    def test_stored_lower_triangle_is_empty(self, n, grouped, seed):
        index = quantized_graph(seed, n, grouped).reachability
        assert np.array_equal(np.sort(index.order), np.arange(n))
        desc = np.unpackbits(index._desc, axis=1, count=n, bitorder="little")
        anc = np.unpackbits(index._anc, axis=1, count=n, bitorder="little")
        assert not np.tril(desc).any()
        assert not np.triu(anc).any()
        assert np.array_equal(desc, anc.T)

    @settings(max_examples=20, deadline=None)
    @given(ORDER_SIZES, st.booleans(), st.integers(0, 9999))
    def test_row_counts_equal_summed_masks(self, n, grouped, seed):
        graph = quantized_graph(seed, n, grouped)
        index = graph.reachability
        reference = reference_relation(graph)
        rng = np.random.default_rng(seed)
        vertices = rng.integers(0, max(n, 1), int(rng.integers(0, 12))) if n else []
        vertices = np.asarray(vertices, dtype=np.intp)
        for ancestors, mask in (
            (True, reference.ancestor_mask),
            (False, reference.descendant_mask),
        ):
            expected = np.zeros(n, dtype=np.int64)
            for v in vertices:  # a repeated vertex counts each time
                expected += mask(int(v))
            counts = index.row_counts(vertices, ancestors=ancestors)
            assert counts.dtype == np.int32
            assert np.array_equal(counts, expected)

    @settings(max_examples=20, deadline=None)
    @given(ORDER_SIZES, st.booleans(), st.integers(0, 9999), st.sampled_from([1.0, 0.5, 0.1]))
    def test_layers_agree_with_and_without_index(self, n, grouped, seed, share):
        from repro.graph import topological_layers
        from repro.verify import naive_kahn_layers

        indexed = quantized_graph(seed, n, grouped)
        declined = decline_reachability(quantized_graph(seed, n, grouped))
        active = np.random.default_rng(seed).random(n) < share
        fast = [layer.tolist() for layer in topological_layers(indexed, active)]
        slow = [layer.tolist() for layer in topological_layers(declined, active)]
        assert fast == slow == naive_kahn_layers(declined, active)

    @pytest.mark.parametrize("grouped", [False, True])
    @pytest.mark.parametrize("n", [0, 1])
    def test_empty_and_one_vertex_graphs(self, n, grouped):
        from repro.graph import topological_layers

        graph = quantized_graph(0, n, grouped)
        index = graph.reachability
        assert index.num_vertices == n and index.order.tolist() == list(range(n))
        assert [layer.tolist() for layer in index.kahn_layers(np.ones(n, bool))] == (
            [[0]] if n else []
        )
        assert topological_layers(graph, np.zeros(n, bool)) == []
        assert index.row_counts(np.arange(n), ancestors=True).tolist() == [0] * n
        assert index.reached(np.arange(n)).tolist() == []
        check_reachability_index(graph)


#: Cell values for the prefix-bitset build's edge cases: a coarse grid,
#: signed zeros, NaN (which compares false) and both infinities.
SPECIAL_CELLS = np.array([0.0, -0.0, 1 / 3, 2 / 3, 1.0, np.nan, np.inf, -np.inf])


def special_graph(seed: int, n: int, m: int, grouped: bool):
    """A pair or grouped graph of *n* vertices drawn from SPECIAL_CELLS.

    Each draw weighs the cells differently, so some graphs are mostly NaN
    and others have none.  The grouped graph pairs base vertices ``2g`` and
    ``2g + 1`` into group g (lower bounds against upper bounds).
    """
    rng = np.random.default_rng(seed)
    rows = 2 * n if grouped else n
    weights = rng.dirichlet(np.ones(len(SPECIAL_CELLS)))
    vectors = rng.choice(SPECIAL_CELLS, (rows, m), p=weights)
    base = PairGraph([(2 * i, 2 * i + 1) for i in range(rows)], vectors)
    if not grouped:
        return base
    return GroupedGraph(base, [[2 * g, 2 * g + 1] for g in range(n)])


class TestPrefixBitsetBuild:
    """The index is built from per-attribute prefix bitsets, and must read
    back exactly what the reference masks and dominance tiles give."""

    @settings(max_examples=30, deadline=None)
    @given(ORDER_SIZES, st.sampled_from([0, 1, 3, 8]), st.booleans(), st.integers(0, 9999))
    def test_index_passes_the_reachability_check(self, n, m, grouped, seed):
        check_reachability_index(special_graph(seed, n, m, grouped))

    @pytest.mark.parametrize("grouped", [False, True])
    def test_every_row_equal(self, grouped):
        """n = 520 equal rows: every pair ties, so strictness clears all."""
        n = 520
        rows = 2 * n if grouped else n
        graph = PairGraph([(2 * i, 2 * i + 1) for i in range(rows)], np.full((rows, 3), 0.5))
        if grouped:
            graph = GroupedGraph(graph, [[2 * g, 2 * g + 1] for g in range(n)])
        index = graph.reachability
        assert not index._desc.any() and not index._anc.any()
        check_reachability_index(graph)

    def test_every_value_distinct(self):
        """n = 520 with no repeated value on any attribute: the widest tables."""
        rng = np.random.default_rng(7)
        vectors = np.stack([rng.permutation(520) / 519 for _ in range(3)], axis=1)
        graph = PairGraph([(2 * i, 2 * i + 1) for i in range(520)], vectors)
        check_reachability_index(graph)

    def test_nan_compares_false(self):
        """Vertex 0's NaN puts it above and below nothing (a threshold count
        that sorts NaN as the largest value reads ``[[1, 2], [2], []]``)."""
        graph = PairGraph([(0, 1), (0, 2), (1, 2)], [[0.5, np.nan], [0.4, 0.3], [0.2, 0.1]])
        index = graph.reachability
        assert [index.descendants(v).tolist() for v in range(3)] == [[], [2], []]
        assert [index.ancestors(v).tolist() for v in range(3)] == [[], [], [1]]
        check_reachability_index(graph)

    @pytest.mark.parametrize("nan_share", [0.0, 0.95])
    def test_tables_built_in_column_chunks(self, monkeypatch, nan_share):
        """A table over the chunk budget is built and applied a chunk of
        columns at a time, with the same bytes.  With most of an attribute
        NaN, its table lists fewer columns than one chunk holds, though
        they lie in every chunk."""
        from repro.graph import reachability

        rng = np.random.default_rng(3)
        vectors = rng.integers(0, 7, (300, 3)) / 6.0
        vectors[rng.random(300) < nan_share, 1] = np.nan
        pairs = [(2 * i, 2 * i + 1) for i in range(300)]
        whole = PairGraph(pairs, vectors).reachability
        monkeypatch.setattr(reachability, "UNPACK_CHUNK_BYTES", 64)
        chunked = PairGraph(pairs, vectors)
        check_reachability_index(chunked)
        assert np.array_equal(whole._desc, chunked.reachability._desc)
        assert np.array_equal(whole._anc, chunked.reachability._anc)
