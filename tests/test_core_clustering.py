"""Tests for pair-to-cluster conversion."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.union_find import UnionFind
from repro.core import clusters_from_matches, clusters_to_matches
from repro.exceptions import DataError


def union_find_clusters(num_records, matches):
    """The reference: union-find components, ordered by first member."""
    sets = UnionFind(num_records)
    for i, j in matches:
        sets.union(i, j)
    return sorted(sets.clusters().values())


@st.composite
def match_graphs(draw):
    """Random edges plus a long chain through shuffled ids, with isolated
    records, both orientations and duplicate edges."""
    num_records = draw(st.integers(0, 60))
    ids = draw(st.permutations(range(num_records)))
    chain = ids[: draw(st.integers(0, num_records))]
    edges = list(zip(chain, chain[1:]))
    if num_records > 1:
        edges += draw(
            st.lists(
                st.tuples(
                    st.integers(0, num_records - 1), st.integers(0, num_records - 1)
                ).filter(lambda p: p[0] != p[1]),
                max_size=40,
            )
        )
    edges = [draw(st.sampled_from([(i, j), (j, i)])) for i, j in edges]
    edges += draw(st.lists(st.sampled_from(edges), max_size=5)) if edges else []
    return num_records, draw(st.permutations(edges))


class TestClustersFromMatches:
    def test_connected_components(self):
        clusters = clusters_from_matches(5, [(0, 1), (1, 2)])
        assert clusters == [[0, 1, 2], [3], [4]]

    def test_no_matches_all_singletons(self):
        assert clusters_from_matches(3, []) == [[0], [1], [2]]

    def test_out_of_range_match(self):
        with pytest.raises(DataError):
            clusters_from_matches(2, [(0, 5)])

    def test_negative_num_records(self):
        with pytest.raises(DataError):
            clusters_from_matches(-1, [])

    @pytest.mark.parametrize("match", [(-1, 0), (0, -1), (-4, -3)])
    def test_negative_record_id_does_not_wrap(self, match):
        # -1 must not index the last record: it once gave [[0, 3], [1], [2]].
        with pytest.raises(DataError, match="outside"):
            clusters_from_matches(4, [match])

    def test_self_match_rejected(self):
        with pytest.raises(DataError, match="distinct"):
            clusters_from_matches(3, [(1, 1)])

    def test_generator_matches_read_once(self):
        matches = ((i, i + 1) for i in range(0, 6, 2))
        assert clusters_from_matches(7, matches) == [[0, 1], [2, 3], [4, 5], [6]]

    def test_zero_records(self):
        assert clusters_from_matches(0, []) == []

    def test_long_chain_in_shuffled_order(self):
        chain = [5, 0, 9, 3, 7, 1, 8, 2, 6, 4]
        matches = list(zip(chain, chain[1:]))
        assert clusters_from_matches(11, matches[::-1]) == [list(range(10)), [10]]

    @settings(max_examples=150, deadline=None)
    @given(match_graphs())
    def test_equals_union_find(self, graph):
        num_records, matches = graph
        clusters = clusters_from_matches(num_records, matches)
        assert clusters == union_find_clusters(num_records, matches)
        assert all(cluster == sorted(cluster) for cluster in clusters)
        assert [cluster[0] for cluster in clusters] == sorted(
            cluster[0] for cluster in clusters
        )


class TestClustersToMatches:
    def test_round_trip_closure(self):
        matches = {(0, 1), (1, 2)}
        clusters = clusters_from_matches(4, matches)
        closure = clusters_to_matches(clusters)
        assert closure == {(0, 1), (0, 2), (1, 2)}

    def test_singletons_produce_nothing(self):
        assert clusters_to_matches([[0], [1]]) == set()

    @settings(max_examples=30)
    @given(
        st.sets(
            st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(
                lambda p: p[0] != p[1]
            ),
            max_size=12,
        )
    )
    def test_closure_contains_original(self, matches):
        clusters = clusters_from_matches(10, matches)
        closure = clusters_to_matches(clusters)
        canonical = {tuple(sorted(pair)) for pair in matches}
        assert canonical <= closure
        # Idempotence: clustering the closure changes nothing.
        assert clusters_from_matches(10, closure) == clusters
