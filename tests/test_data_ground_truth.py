"""Tests for ground-truth clusters and gold pairs."""

import pytest

from repro.data import Table, canonical_pair, entity_clusters, num_entities, pair_truth, true_match_pairs
from repro.data.ground_truth import pair_arrays
from repro.exceptions import DataError


@pytest.fixture()
def labeled_table():
    return Table.from_rows(
        "t", ("a",), [("w",), ("x",), ("y",), ("z",)], entity_ids=[0, 1, 0, 1]
    )


class TestCanonicalPair:
    def test_orders_endpoints(self):
        assert canonical_pair(5, 2) == (2, 5)
        assert canonical_pair(2, 5) == (2, 5)

    def test_rejects_self_pair(self):
        with pytest.raises(DataError):
            canonical_pair(3, 3)


class TestClusters:
    def test_entity_clusters(self, labeled_table):
        clusters = entity_clusters(labeled_table)
        assert clusters == {0: [0, 2], 1: [1, 3]}

    def test_num_entities(self, labeled_table):
        assert num_entities(labeled_table) == 2

    def test_requires_ground_truth(self):
        table = Table.from_rows("t", ("a",), [("x",)])
        with pytest.raises(DataError):
            entity_clusters(table)


class TestTrueMatchPairs:
    def test_all_within_cluster_pairs(self, labeled_table):
        assert true_match_pairs(labeled_table) == {(0, 2), (1, 3)}

    def test_singletons_produce_nothing(self):
        table = Table.from_rows("t", ("a",), [("x",), ("y",)], entity_ids=[0, 1])
        assert true_match_pairs(table) == set()

    def test_cluster_of_three(self):
        table = Table.from_rows(
            "t", ("a",), [("x",)] * 3, entity_ids=[7, 7, 7]
        )
        assert true_match_pairs(table) == {(0, 1), (0, 2), (1, 2)}


class TestPairTruth:
    def test_truth_values(self, labeled_table):
        truth = pair_truth(labeled_table, [(0, 2), (0, 1)])
        assert truth == {(0, 2): True, (0, 1): False}

    def test_canonicalises_input(self, labeled_table):
        truth = pair_truth(labeled_table, [(2, 0)])
        assert truth == {(0, 2): True}

    def test_canonical_tuples_are_reused_as_keys(self, labeled_table):
        pair = (0, 2)
        (key,) = pair_truth(labeled_table, [pair])
        assert key is pair

    def test_non_tuple_pairs_become_tuples(self, labeled_table):
        truth = pair_truth(labeled_table, [[0, 2], [2, 1]])
        assert truth == {(0, 2): True, (1, 2): False}
        assert all(type(key) is tuple for key in truth)

    def test_rejects_self_pair(self, labeled_table):
        with pytest.raises(DataError):
            pair_truth(labeled_table, [(1, 1)])

    @pytest.mark.parametrize("pair", [(-1, 1), (1, -1), (1, 5), (4, 0)])
    def test_rejects_records_outside_the_table(self, pair):
        # -1 would read the last record's entity; 5 would be a bare IndexError.
        table = Table.from_rows("t", ("a",), [("x",)] * 3, entity_ids=[0, 1, 1])
        with pytest.raises(DataError, match="outside"):
            pair_truth(table, [pair])


class TestPairArrays:
    def test_lower_and_higher_ids(self):
        low, high = pair_arrays([(3, 1), (0, 2)], 4)
        assert (low.tolist(), high.tolist()) == ([1, 0], [3, 2])
        low, high = pair_arrays(iter([(1, 0)]), 2)
        assert (low.tolist(), high.tolist()) == ([0], [1])
        low, high = pair_arrays([], 0)
        assert low.size == high.size == 0

    @pytest.mark.parametrize(
        "pairs, match",
        [
            ([(-1, 0)], "outside"),
            ([(0, 4)], "outside"),
            ([(0, 2**70)], "outside"),
            ([(2, 2)], "distinct"),
            ([(0.5, 1)], "integers"),
            ([("0", 1)], "integers"),
            ([(0, 1, 2)], "two record ids"),
        ],
    )
    def test_rejects_malformed_pairs(self, pairs, match):
        with pytest.raises(DataError, match=match):
            pair_arrays(pairs, 4)
