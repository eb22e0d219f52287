"""Property tests for the partial order (Eqs. 3-4).

The scalar relations and the float-broadcast masks are the readable
reference in :mod:`repro.verify.relation`; production reads the
reachability index, which the battery diffs against them.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.verify.relation import (
    ancestor_mask,
    comparable,
    descendant_mask,
    dominates,
    strictly_dominates,
)

VECTOR = st.lists(
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=1, max_size=4
)


def pair_of_vectors():
    return st.integers(min_value=1, max_value=4).flatmap(
        lambda m: st.tuples(
            st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=m, max_size=m),
            st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=m, max_size=m),
            st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=m, max_size=m),
        )
    )


class TestScalarRelations:
    def test_dominates_reflexive(self):
        v = np.array([0.5, 0.3])
        assert dominates(v, v)
        assert not strictly_dominates(v, v)

    def test_strict_dominance_example(self):
        assert strictly_dominates(np.array([0.5, 0.5]), np.array([0.5, 0.4]))

    def test_incomparable_example(self):
        a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert not dominates(a, b) and not dominates(b, a)
        assert not comparable(a, b)

    @given(pair_of_vectors())
    def test_antisymmetry(self, vectors):
        u, v, _ = (np.array(x) for x in vectors)
        assert not (strictly_dominates(u, v) and strictly_dominates(v, u))

    @given(pair_of_vectors())
    def test_transitivity(self, vectors):
        u, v, w = (np.array(x) for x in vectors)
        if strictly_dominates(u, v) and strictly_dominates(v, w):
            assert strictly_dominates(u, w)

    @given(pair_of_vectors())
    def test_strict_implies_weak(self, vectors):
        u, v, _ = (np.array(x) for x in vectors)
        if strictly_dominates(u, v):
            assert dominates(u, v)


class TestVectorisedMasks:
    @pytest.fixture()
    def matrix(self):
        rng = np.random.default_rng(5)
        return np.round(rng.random((40, 3)) * 4) / 4

    def test_masks_match_scalar_definitions(self, matrix):
        for row in range(matrix.shape[0]):
            vector = matrix[row]
            desc = descendant_mask(matrix, vector)
            anc = ancestor_mask(matrix, vector)
            for other in range(matrix.shape[0]):
                assert desc[other] == strictly_dominates(vector, matrix[other])
                assert anc[other] == strictly_dominates(matrix[other], vector)

    def test_partition_of_universe(self, matrix):
        """Every vertex is at most one of descendant, ancestor or equal
        (the rest are incomparable)."""
        for row in range(matrix.shape[0]):
            vector = matrix[row]
            desc = descendant_mask(matrix, vector)
            anc = ancestor_mask(matrix, vector)
            equal = (matrix == vector).all(axis=1)
            total = desc.astype(int) + anc.astype(int) + equal.astype(int)
            assert np.all(total <= 1)

    def test_no_vector_is_its_own_strict_relative(self, matrix):
        for row in range(matrix.shape[0]):
            assert not descendant_mask(matrix, matrix[row])[row] or (
                # identical duplicate rows are fine; strictness excludes self
                False
            )
