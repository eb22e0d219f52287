"""Tests for the candidate-pair similarity join (the §7.1 pruning step)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Table
from repro.exceptions import ConfigurationError
from repro.similarity import similar_pairs, sparse_jaccard_join
from repro.similarity.batch import _overlap_floor
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


class TestSparseJoinProperties:
    """The one production join against both oracles.

    For random token sets (empty ones included) and thresholds, the sparse
    join equals the naive oracle and the prefix oracle, sorted.
    """

    @settings(max_examples=80, deadline=None)
    @given(TOKEN_SETS, st.sampled_from([0.05, 0.1, 0.2, 1 / 3, 0.5, 0.8, 1.0]))
    def test_full_join_equals_oracles(self, token_sets, threshold):
        full = sparse_jaccard_join(token_sets, threshold)
        assert full == sorted(full)
        assert set(full) == naive_join(token_sets, threshold)
        assert set(full) == prefix_join(token_sets, threshold)

    def test_threshold_validation(self):
        token_sets = [frozenset({"alpha"})] * 3
        with pytest.raises(ConfigurationError, match="threshold"):
            sparse_jaccard_join(token_sets, 0.0)
        assert sparse_jaccard_join([], 0.5) == []


def _words(prefix, count):
    return frozenset(f"{prefix}{k}" for k in range(count))


@st.composite
def interval_token_sets(draw):
    """Token sets that are integer intervals, mostly nested, at sizes whose
    ratios sit on a float edge (7/25, 14/50, ... at 0.28; 55/100 at 0.55)."""
    size = st.sampled_from([7, 14, 21, 25, 28, 50, 55, 75, 100]) | st.integers(0, 110)
    records = draw(
        st.lists(st.tuples(st.integers(0, 8), size), min_size=0, max_size=14)
    )
    return [frozenset(range(start, start + length)) for start, length in records]


class TestOverlapFloor:
    """The join verifies only candidates at or above the float floor."""

    @pytest.mark.parametrize("threshold", [0.05, 0.2, 0.28, 0.3, 1 / 3, 0.55, 1.0])
    def test_floor_is_the_least_passing_overlap(self, threshold):
        need = _overlap_floor(120, threshold)
        for size in range(1, 121):
            least = next(k for k in range(size + 1) if k / size >= threshold)
            assert need[size] == least

    def test_seven_of_twenty_five_at_028(self):
        # 0.28 * 25 == 7.000000000000001, yet 7 / 25 >= 0.28.
        assert 0.28 * 25 > 7 and 7 / 25 >= 0.28
        token_sets = [_words("w", 7), _words("w", 25), _words("w", 6)]
        pairs = sparse_jaccard_join(token_sets, 0.28)
        assert pairs == [(0, 1), (0, 2)]
        assert set(pairs) == naive_join(token_sets, 0.28)
        assert set(pairs) == prefix_join(token_sets, 0.28)

    def test_fifty_five_of_a_hundred_at_055(self):
        # 0.55 * 100 == 55.00000000000001, yet 55 / 100 >= 0.55.
        assert 0.55 * 100 > 55 and 55 / 100 >= 0.55
        token_sets = [_words("w", 55), _words("w", 54), _words("w", 100)]
        pairs = sparse_jaccard_join(token_sets, 0.55)
        assert pairs == [(0, 1), (0, 2)]
        assert set(pairs) == naive_join(token_sets, 0.55)
        assert set(pairs) == prefix_join(token_sets, 0.55)

    @settings(max_examples=80, deadline=None)
    @given(interval_token_sets(), st.sampled_from([0.28, 0.3, 0.55, 1.0]))
    def test_whole_join_equals_naive(self, token_sets, threshold):
        expected = naive_join(token_sets, threshold)
        assert sparse_jaccard_join(token_sets, threshold) == sorted(expected)
        assert prefix_join(token_sets, threshold) == expected
