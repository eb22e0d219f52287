"""Tests for the candidate-pair similarity join (the §7.1 pruning step)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Table
from repro.exceptions import ConfigurationError
from repro.similarity import (
    similar_pairs,
    similar_pairs_edit,
    similar_pairs_range,
    sparse_jaccard_join,
    top_k_pairs,
)
from repro.similarity.tokenize import word_tokens
from repro.verify import naive_join, prefix_join

WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"]
ROW = st.lists(st.sampled_from(WORDS), min_size=1, max_size=4).map(" ".join)

#: Token sets over a small vocabulary (collisions everywhere), empty ones
#: included: two empty sets have Jaccard 1.0 and must pair.
TOKEN_SETS = st.lists(
    st.frozensets(st.sampled_from(WORDS), max_size=4), min_size=0, max_size=30
)


def make_table(rows):
    return Table.from_rows("t", ("text",), [(row,) for row in rows])


def record_tokens(table):
    return [word_tokens(table.record_text(r.record_id)) for r in table]


@st.composite
def tilings(draw, n):
    """A random disjoint covering tiling of ``[0, n)`` (empty tiles allowed)."""
    cuts = draw(st.lists(st.integers(min_value=0, max_value=n), max_size=6))
    bounds = [0, *sorted(cuts), n]
    return list(zip(bounds, bounds[1:]))


class TestSimilarPairs:
    def test_identical_records_always_join(self):
        table = make_table(["alpha beta", "alpha beta", "gamma"])
        assert (0, 1) in similar_pairs(table, 0.9)

    def test_threshold_excludes_dissimilar(self):
        table = make_table(["alpha beta", "gamma delta"])
        assert similar_pairs(table, 0.5) == []

    def test_pairs_are_canonical_and_sorted(self, small_table):
        pairs = similar_pairs(small_table, 0.3)
        assert pairs == sorted(pairs)
        assert all(i < j for i, j in pairs)

    def test_invalid_threshold(self, small_table):
        with pytest.raises(ConfigurationError):
            similar_pairs(small_table, 0.0)
        with pytest.raises(ConfigurationError):
            similar_pairs(small_table, 1.5)

    def test_invalid_method(self, small_table):
        # One join, no strategy knob: the old ``method=`` keyword is gone.
        with pytest.raises(TypeError):
            similar_pairs(small_table, 0.5, method="magic")

    def test_qgram_tokens_mode(self, small_table):
        pairs = similar_pairs(small_table, 0.4, tokens="qgram")
        assert all(i < j for i, j in pairs)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(ROW, min_size=2, max_size=25), st.floats(min_value=0.1, max_value=0.9))
    def test_prefix_join_equals_naive(self, rows, threshold):
        """The prefix-filter oracle reports exactly the naive oracle's pairs."""
        token_sets = record_tokens(make_table(rows))
        assert prefix_join(token_sets, threshold) == naive_join(token_sets, threshold)

    def test_prefix_join_on_small_table(self, small_table):
        token_sets = record_tokens(small_table)
        for threshold in (0.2, 0.4, 0.6):
            expected = sorted(naive_join(token_sets, threshold))
            assert sorted(prefix_join(token_sets, threshold)) == expected
            assert similar_pairs(small_table, threshold) == expected


class TestSimilarPairsRange:
    """The range-restricted join that powers the sharded parallel join.

    Contract: pair ``(a, b)`` is owned by its higher record id ``b``, so
    the union of ``similar_pairs_range`` over any disjoint covering tiling
    of ``[0, n)`` equals ``similar_pairs`` pair for pair.
    """

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(ROW, min_size=2, max_size=25),
        st.floats(min_value=0.1, max_value=0.9),
        st.integers(min_value=1, max_value=5),
    )
    def test_tiling_reproduces_full_join(self, rows, threshold, slices):
        from repro.shard import vertex_slices

        table = make_table(rows)
        reference = similar_pairs(table, threshold)
        union = []
        for lo, hi in vertex_slices(len(table), slices):
            union.extend(similar_pairs_range(table, threshold, lo, hi))
        assert sorted(union) == reference
        assert len(union) == len(set(union)), "tiles must be disjoint"

    def test_uneven_tiling_and_qgram_tokens(self, small_table):
        n = len(small_table)
        cuts = [0, 1, n // 3, n // 2, n]  # deliberately lopsided tiling
        for tokens in ("word", "qgram"):
            reference = similar_pairs(small_table, 0.3, tokens=tokens)
            union = []
            for lo, hi in zip(cuts, cuts[1:]):
                union.extend(
                    similar_pairs_range(small_table, 0.3, lo, hi, tokens=tokens)
                )
            assert sorted(union) == reference

    def test_range_owns_pairs_by_higher_id(self, small_table):
        lo, hi = 10, 20
        pairs = similar_pairs_range(small_table, 0.3, lo, hi)
        assert all(lo <= j < hi and i < j for i, j in pairs)

    def test_empty_range_and_validation(self, small_table):
        assert similar_pairs_range(small_table, 0.3, 5, 5) == []
        with pytest.raises(ConfigurationError):
            similar_pairs_range(small_table, 0.3, 3, 2)
        with pytest.raises(ConfigurationError):
            similar_pairs_range(small_table, 0.3, 0, len(small_table) + 1)
        with pytest.raises(ConfigurationError):
            similar_pairs_range(small_table, 0.0, 0, 1)
        with pytest.raises(ConfigurationError):
            similar_pairs_range(small_table, 0.3, -1, 2)
        with pytest.raises(ConfigurationError):
            similar_pairs_range(small_table, 0.3, 0, 1, tokens="byte")


class TestSparseJoinProperties:
    """The one production join against both oracles, whole and tiled.

    For random token sets (empty ones included), thresholds, and random
    tilings of ``[0, n)``: the union of the range outputs equals the full
    sparse join, the naive oracle, and the prefix oracle, and no pair is
    emitted by two ranges.
    """

    @settings(max_examples=80, deadline=None)
    @given(
        st.data(),
        TOKEN_SETS,
        st.sampled_from([0.05, 0.1, 0.2, 1 / 3, 0.5, 0.8, 1.0]),
    )
    def test_range_tiling_equals_full_join_and_oracles(self, data, token_sets, threshold):
        full = sparse_jaccard_join(token_sets, threshold)
        assert full == naive_join(token_sets, threshold)
        assert full == prefix_join(token_sets, threshold)
        union = []
        for lo, hi in data.draw(tilings(len(token_sets))):
            owned = sparse_jaccard_join(token_sets, threshold, lo=lo, hi=hi)
            assert all(a < b and lo <= b < hi for a, b in owned)
            union.extend(owned)
        assert len(union) == len(set(union)), "tiles must be disjoint"
        assert set(union) == full

    def test_empty_records_pair_across_a_range_cut(self):
        token_sets = [frozenset(), frozenset({"alpha"}), frozenset(), frozenset()]
        assert sparse_jaccard_join(token_sets, 0.5, lo=2, hi=4) == {
            (0, 2),
            (0, 3),
            (2, 3),
        }

    def test_range_validation(self):
        token_sets = [frozenset({"alpha"})] * 3
        for lo, hi in ((-1, 2), (2, 1), (0, 4)):
            with pytest.raises(ConfigurationError, match="escapes"):
                sparse_jaccard_join(token_sets, 0.5, lo=lo, hi=hi)
        with pytest.raises(ConfigurationError, match="threshold"):
            sparse_jaccard_join(token_sets, 0.0, lo=0, hi=1)
        assert sparse_jaccard_join(token_sets, 0.5, lo=2, hi=2) == set()
        assert sparse_jaccard_join([], 0.5) == set()


class TestTopKPairs:
    def test_returns_k_most_similar(self):
        table = make_table(["alpha beta", "alpha beta", "alpha", "zeta"])
        top = top_k_pairs(table, 2)
        assert len(top) == 2
        assert top[0][0] >= top[1][0]
        assert top[0][1] == (0, 1)

    def test_k_larger_than_pairs(self):
        table = make_table(["alpha", "beta"])
        assert len(top_k_pairs(table, 10)) == 1

    def test_invalid_k(self, small_table):
        with pytest.raises(ConfigurationError):
            top_k_pairs(small_table, 0)


class TestSimilarPairsEdit:
    def test_identical_records_join(self):
        table = make_table(["alpha beta", "alpha beta"])
        assert similar_pairs_edit(table, 0.9) == [(0, 1)]

    def test_threshold_excludes(self):
        table = make_table(["alpha beta", "zeta"])
        assert similar_pairs_edit(table, 0.8) == []

    def test_matches_naive_edit_similarity(self, small_table):
        from repro.similarity import edit_similarity

        threshold = 0.6
        got = similar_pairs_edit(small_table, threshold, prefilter_overlap=0.0)
        texts = [small_table.record_text(r.record_id) for r in small_table]
        expected = [
            (i, j)
            for i in range(len(texts))
            for j in range(i + 1, len(texts))
            if edit_similarity(texts[i], texts[j]) >= threshold
        ]
        assert got == expected

    def test_prefiltered_equals_unfiltered_naive_scan(self):
        from repro.similarity import edit_similarity

        # Every edit-similar pair shares a word, so the loose token
        # prefilter must lose nothing; the two empty records pair too.
        table = make_table(
            ["john smith", "jon smith", "", "mary jones", "mary jane",
             "peter parker", "peter parkers", "", "acme corp"]
        )
        texts = [table.record_text(r.record_id) for r in table]
        for threshold in (0.6, 0.7, 0.8, 0.9):
            expected = [
                (i, j)
                for i in range(len(texts))
                for j in range(i + 1, len(texts))
                if edit_similarity(texts[i], texts[j]) >= threshold
            ]
            assert similar_pairs_edit(table, threshold) == expected

    def test_prefilter_preserves_high_threshold_pairs(self, small_table):
        strict = similar_pairs_edit(small_table, 0.7, prefilter_overlap=0.0)
        filtered = similar_pairs_edit(small_table, 0.7, prefilter_overlap=0.05)
        # The loose token prefilter may only drop token-disjoint pairs.
        assert set(filtered) <= set(strict)
        assert len(filtered) >= len(strict) * 0.9

    def test_invalid_threshold(self, small_table):
        with pytest.raises(ConfigurationError):
            similar_pairs_edit(small_table, 0.0)
