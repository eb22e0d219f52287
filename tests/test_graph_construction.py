"""Tests for the three graph-construction algorithms (§4.1).

The load-bearing property: brute force, quicksort, the range-tree index and
the vectorised reference all produce exactly the same dominance edge set.
The reference forms (the per-vertex broadcast and the tile lists) live in
:mod:`repro.verify.relation`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError
from repro.graph import brute_force_edges, index_edges, quicksort_edges
from repro.verify.relation import blocked_dominance_lists, vectorized_edges

from conftest import random_vectors


def matrix_strategy():
    return st.tuples(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=10_000),
    ).map(lambda args: random_vectors(args[2], args[0], args[1]))


class TestAgreement:
    @settings(max_examples=30, deadline=None)
    @given(matrix_strategy())
    def test_quicksort_equals_brute_force(self, vectors):
        assert quicksort_edges(vectors) == brute_force_edges(vectors)

    @settings(max_examples=30, deadline=None)
    @given(matrix_strategy())
    def test_vectorized_equals_brute_force(self, vectors):
        assert vectorized_edges(vectors) == brute_force_edges(vectors)

    @settings(max_examples=30, deadline=None)
    @given(matrix_strategy())
    def test_index_equals_brute_force(self, vectors):
        if vectors.shape[1] >= 2:
            assert index_edges(vectors) == brute_force_edges(vectors)

    def test_agreement_on_real_vectors(self, small_bundle):
        _, _, vectors, _ = small_bundle
        reference = vectorized_edges(vectors)
        assert brute_force_edges(vectors) == reference
        assert quicksort_edges(vectors) == reference
        assert index_edges(vectors) == reference


class TestEdgeSemantics:
    def test_simple_chain(self):
        vectors = np.array([[1.0, 1.0], [0.5, 0.5], [0.0, 0.0]])
        edges = brute_force_edges(vectors)
        assert edges == {(0, 1), (0, 2), (1, 2)}

    def test_incomparable_vertices(self):
        vectors = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert brute_force_edges(vectors) == set()

    def test_equal_vectors_no_edge(self):
        vectors = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert brute_force_edges(vectors) == set()
        assert quicksort_edges(vectors) == set()
        assert index_edges(vectors) == set()

    def test_empty_input(self):
        vectors = np.empty((0, 3))
        assert brute_force_edges(vectors) == set()
        assert quicksort_edges(vectors) == set()

    def test_single_vertex(self):
        vectors = np.array([[0.5]])
        assert brute_force_edges(vectors) == set()

    def test_edges_form_dag(self):
        vectors = random_vectors(3, 30, 3)
        edges = vectorized_edges(vectors)
        # Antisymmetry: no 2-cycles.
        assert not any((b, a) in edges for a, b in edges)
        # Transitivity: the relation is its own closure.
        for a, b in edges:
            for c, d in edges:
                if b == c:
                    assert (a, d) in edges

    def test_quicksort_seed_does_not_change_result(self):
        vectors = random_vectors(11, 50, 3)
        assert quicksort_edges(vectors, seed=0) == quicksort_edges(vectors, seed=99)

    def test_index_invalid_attributes(self):
        vectors = np.array([[0.5, 0.5]])
        with pytest.raises(GraphError):
            index_edges(vectors, indexed_attributes=(0, 0))
        with pytest.raises(GraphError):
            index_edges(vectors, indexed_attributes=(0, 5))


class TestBlockedDominanceListsEdgeCases:
    """Regression battery for the reference tile lists.

    Every case must be *bit-identical* to the scalar per-vertex reference
    (a plain broadcast over one row at a time), including the shapes and
    dtypes of the returned index arrays.
    """

    @staticmethod
    def _scalar_reference(dominant, dominated, exclude_diagonal=True):
        dominant = np.asarray(dominant, dtype=np.float64)
        dominated = np.asarray(dominated, dtype=np.float64)
        lists = []
        for u in range(dominant.shape[0]):
            row = dominant[u]
            mask = np.all(dominated <= row, axis=1) & np.any(dominated < row, axis=1)
            if exclude_diagonal and u < dominated.shape[0]:
                mask[u] = False
            lists.append(np.flatnonzero(mask))
        return lists

    def _assert_identical(self, dominant, dominated=None, **kwargs):
        if dominated is None:
            dominated = dominant
        fast = blocked_dominance_lists(np.asarray(dominant, dtype=np.float64),
                                       np.asarray(dominated, dtype=np.float64),
                                       **kwargs)
        slow = self._scalar_reference(
            dominant, dominated, exclude_diagonal=kwargs.get("exclude_diagonal", True)
        )
        assert len(fast) == len(slow)
        for u, (fast_row, slow_row) in enumerate(zip(fast, slow)):
            assert fast_row.dtype.kind == "i", f"row {u} has dtype {fast_row.dtype}"
            assert np.array_equal(fast_row, slow_row), (
                f"row {u}: blocked {fast_row.tolist()} != scalar {slow_row.tolist()}"
            )

    def test_empty_block(self):
        """Zero vectors: one empty list per vertex — i.e. none at all."""
        self._assert_identical(np.empty((0, 3)))

    def test_empty_block_with_attributes_zero(self):
        self._assert_identical(np.empty((0, 0)))

    def test_singleton_block(self):
        """One vertex: never dominates itself, whatever the block size."""
        self._assert_identical(np.array([[0.4, 0.8, 0.1]]), block_size=1)
        self._assert_identical(np.array([[0.4, 0.8, 0.1]]), block_size=1024)

    def test_all_identical_vectors(self):
        """Equal rows are mutually incomparable: no strict component."""
        vectors = np.full((9, 4), 0.5)
        self._assert_identical(vectors, block_size=4)
        lists = blocked_dominance_lists(vectors, vectors, block_size=4)
        assert all(len(row) == 0 for row in lists)

    def test_block_size_one(self):
        self._assert_identical(random_vectors(17, 13, 3), block_size=1)

    def test_block_size_larger_than_input(self):
        self._assert_identical(random_vectors(18, 13, 3), block_size=4096)

    def test_block_boundary_sizes(self):
        """n exactly at, one below, and one above a block multiple."""
        for n in (7, 8, 9):
            self._assert_identical(random_vectors(19, n, 3), block_size=4)

    def test_distinct_operands(self):
        """Grouped-graph shape: lower bounds dominate upper bounds."""
        upper = random_vectors(20, 11, 3)
        lower = np.clip(upper - 0.2, 0.0, 1.0)
        self._assert_identical(lower, upper, block_size=4, exclude_diagonal=False)

    def test_mismatched_shapes_rejected(self):
        """The kernel requires row-aligned operands of identical shape."""
        with pytest.raises(GraphError):
            blocked_dominance_lists(random_vectors(20, 6, 3), random_vectors(21, 11, 3))

    def test_single_attribute(self):
        self._assert_identical(random_vectors(22, 10, 1), block_size=3)
