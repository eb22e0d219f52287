"""Unit tests for Levenshtein edit distance and edit similarity (Eq. 2)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.similarity import edit_distance, edit_similarity

TEXT = st.text(alphabet="abcde ", max_size=24)


class TestEditDistance:
    def test_identical_strings(self):
        assert edit_distance("kitten", "kitten") == 0

    def test_empty_vs_nonempty(self):
        assert edit_distance("", "abc") == 3
        assert edit_distance("abc", "") == 3

    def test_classic_kitten_sitting(self):
        assert edit_distance("kitten", "sitting") == 3

    def test_single_substitution(self):
        assert edit_distance("cat", "car") == 1

    def test_single_insertion(self):
        assert edit_distance("cat", "cart") == 1

    def test_transposition_costs_two(self):
        # Plain Levenshtein (no Damerau): swap = delete + insert.
        assert edit_distance("ab", "ba") == 2

    @given(TEXT, TEXT)
    def test_symmetry(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)

    @given(TEXT, TEXT)
    def test_bounds(self, a, b):
        d = edit_distance(a, b)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))

    @given(TEXT, TEXT, TEXT)
    def test_triangle_inequality(self, a, b, c):
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    @given(TEXT, TEXT)
    def test_zero_iff_equal(self, a, b):
        assert (edit_distance(a, b) == 0) == (a == b)


class TestEditSimilarity:
    def test_equal_strings(self):
        assert edit_similarity("abc", "abc") == 1.0

    def test_both_empty(self):
        assert edit_similarity("", "") == 1.0

    def test_disjoint_strings(self):
        assert edit_similarity("aaa", "bbb") == 0.0

    def test_paper_normalisation(self):
        # EDS = 1 - ED / max(len): one edit on a 4-char string -> 0.75.
        assert edit_similarity("abcd", "abce") == pytest.approx(0.75)

    @given(TEXT, TEXT)
    def test_range(self, a, b):
        assert 0.0 <= edit_similarity(a, b) <= 1.0

    @given(TEXT, TEXT)
    def test_symmetry(self, a, b):
        assert edit_similarity(a, b) == pytest.approx(edit_similarity(b, a))
