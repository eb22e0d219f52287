"""Tests for the pairwise quality metrics (§7.1)."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import entity_quality, pairwise_quality
from repro.data import Table, true_match_pairs
from repro.exceptions import DataError

PAIRS = st.sets(
    st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(lambda p: p[0] != p[1]),
    max_size=15,
)


class TestPairwiseQuality:
    def test_perfect_prediction(self):
        gold = {(0, 1), (2, 3)}
        report = pairwise_quality(gold, gold)
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.f_measure == 1.0

    def test_half_precision(self):
        report = pairwise_quality({(0, 1), (2, 3)}, {(0, 1)})
        assert report.precision == 0.5
        assert report.recall == 1.0
        assert report.f_measure == pytest.approx(2 / 3)

    def test_half_recall(self):
        report = pairwise_quality({(0, 1)}, {(0, 1), (2, 3)})
        assert report.precision == 1.0
        assert report.recall == 0.5

    def test_empty_prediction(self):
        report = pairwise_quality(set(), {(0, 1)})
        assert report.precision == 1.0  # vacuous
        assert report.recall == 0.0
        assert report.f_measure == 0.0

    def test_empty_gold(self):
        report = pairwise_quality({(0, 1)}, set())
        assert report.recall == 1.0
        assert report.precision == 0.0

    def test_orientation_insensitive(self):
        report = pairwise_quality({(1, 0)}, {(0, 1)})
        assert report.f_measure == 1.0

    def test_counts(self):
        report = pairwise_quality({(0, 1), (2, 3)}, {(0, 1), (4, 5)})
        assert report.true_positives == 1
        assert report.false_positives == 1
        assert report.false_negatives == 1

    def test_str_contains_scores(self):
        text = str(pairwise_quality({(0, 1)}, {(0, 1)}))
        assert "F1=1.000" in text

    @settings(max_examples=50)
    @given(PAIRS, PAIRS)
    def test_metric_bounds(self, predicted, gold):
        report = pairwise_quality(predicted, gold)
        assert 0.0 <= report.precision <= 1.0
        assert 0.0 <= report.recall <= 1.0
        assert 0.0 <= report.f_measure <= 1.0
        # The harmonic mean is bounded by its arguments (up to float noise).
        assert report.f_measure <= max(report.precision, report.recall) + 1e-9


class TestQualityProperties:
    """Hypothesis laws for the pairwise metrics."""

    @settings(max_examples=60)
    @given(PAIRS, PAIRS)
    def test_f1_symmetry(self, predicted, gold):
        """Swapping predicted and gold swaps P and R but preserves F1."""
        forward = pairwise_quality(predicted, gold)
        backward = pairwise_quality(gold, predicted)
        assert forward.precision == backward.recall
        assert forward.recall == backward.precision
        assert forward.f_measure == pytest.approx(backward.f_measure)

    @settings(max_examples=60)
    @given(PAIRS, PAIRS)
    def test_f1_zero_iff_no_true_positive(self, predicted, gold):
        """With a non-trivial instance, F1 = 0 exactly when TP = 0.

        Both-empty is the vacuous exception: P = R = 1 by convention even
        though TP = 0, so it is excluded via ``assume``.
        """
        assume(predicted or gold)
        report = pairwise_quality(predicted, gold)
        if report.true_positives == 0:
            assert report.f_measure == 0.0
        else:
            assert report.f_measure > 0.0

    @settings(max_examples=60)
    @given(PAIRS)
    def test_self_comparison_is_perfect(self, pairs):
        report = pairwise_quality(pairs, pairs)
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.f_measure == 1.0
        assert report.false_positives == report.false_negatives == 0

    @settings(max_examples=60)
    @given(PAIRS, PAIRS)
    def test_counts_are_consistent(self, predicted, gold):
        report = pairwise_quality(predicted, gold)
        canonical_predicted = {tuple(sorted(p)) for p in predicted}
        canonical_gold = {tuple(sorted(p)) for p in gold}
        assert report.true_positives + report.false_positives == len(canonical_predicted)
        assert report.true_positives + report.false_negatives == len(canonical_gold)


@st.composite
def labelled_matches(draw):
    """A table with integer or string entity ids and matches over it, in
    either orientation and with duplicates."""
    num_records = draw(st.integers(0, 12))
    labels = st.integers(0, 4) | st.sampled_from(["a", "b", "0"])
    entities = draw(st.lists(labels, min_size=num_records, max_size=num_records))
    table = Table.from_rows("t", ("a",), [("x",)] * num_records, entities)
    if num_records < 2:
        return table, []
    record = st.integers(0, num_records - 1)
    pairs = st.tuples(record, record).filter(lambda p: p[0] != p[1])
    return table, draw(st.lists(pairs, max_size=30))


class TestEntityQuality:
    """The entity-id scorer equals the gold-set scorer field for field."""

    @settings(max_examples=200, deadline=None)
    @given(labelled_matches())
    def test_equals_pairwise_quality(self, instance):
        table, matches = instance
        expected = pairwise_quality(matches, true_match_pairs(table))
        assert entity_quality(matches, table) == expected
        assert entity_quality(iter(matches), table) == expected

    def test_counts_types(self):
        table = Table.from_rows("t", ("a",), [("x",)] * 3, ["e", "e", "f"])
        report = entity_quality({(1, 0), (0, 1), (1, 2)}, table)
        assert (report.true_positives, report.false_positives) == (1, 1)
        assert report.false_negatives == 0
        assert all(
            type(value) is int
            for value in (
                report.true_positives,
                report.false_positives,
                report.false_negatives,
            )
        )

    @pytest.mark.parametrize("matches", [[(0, 3)], [(-1, 0)], [(2, 2)], [(0.0, 1)]])
    def test_rejects_pairs_outside_its_precondition(self, matches):
        table = Table.from_rows("t", ("a",), [("x",)] * 3, [0, 0, 1])
        with pytest.raises(DataError):
            entity_quality(matches, table)

    def test_requires_ground_truth(self):
        with pytest.raises(DataError):
            entity_quality([], Table.from_rows("t", ("a",), [("x",)]))
