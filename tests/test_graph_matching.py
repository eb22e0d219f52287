"""Tests for Hopcroft-Karp and the Dilworth path decomposition (§5.2).

The from-scratch decomposition (``hopcroft_karp``, ``minimum_path_cover``)
is the reference in :mod:`repro.verify.relation`; the warm-start engine
production runs is tested against it in ``test_incremental_matching``.
"""

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import PairGraph, greedy_path_cover, restricted_adjacency
from repro.verify.relation import hopcroft_karp, minimum_path_cover, vectorized_edges

from conftest import random_vectors


def bipartite_strategy():
    return st.integers(min_value=0, max_value=9).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=0, max_value=max(0, n - 1)), max_size=n).map(
                lambda xs: sorted(set(xs))
            ),
            min_size=n,
            max_size=n,
        )
    )


def matching_size_networkx(adjacency):
    graph = nx.Graph()
    num_left = len(adjacency)
    graph.add_nodes_from(range(num_left), bipartite=0)
    for u, neighbors in enumerate(adjacency):
        for v in neighbors:
            graph.add_edge(u, num_left + v)
    left = {n for n, d in graph.nodes(data=True) if d.get("bipartite") == 0}
    matching = nx.bipartite.maximum_matching(graph, top_nodes=left)
    return sum(1 for k in matching if k in left)


def dominance_adjacency(vectors):
    n = vectors.shape[0]
    adjacency = [[] for _ in range(n)]
    for parent, child in vectorized_edges(vectors):
        adjacency[parent].append(child)
    return [sorted(children) for children in adjacency]


class TestHopcroftKarp:
    def test_perfect_matching(self):
        adjacency = [[0], [1], [2]]
        match_left, match_right = hopcroft_karp(adjacency, num_right=3)
        assert match_left == [0, 1, 2]
        assert match_right == [0, 1, 2]

    def test_augmenting_path_needed(self):
        # u0 -> {0,1}, u1 -> {0}: greedy u0=0 blocks u1 unless augmented.
        adjacency = [[0, 1], [0]]
        match_left, _ = hopcroft_karp(adjacency, num_right=2)
        assert sorted(match_left) == [0, 1]

    def test_no_edges(self):
        match_left, match_right = hopcroft_karp([[], []], num_right=2)
        assert match_left == [-1, -1]
        assert match_right == [-1, -1]

    @settings(max_examples=50, deadline=None)
    @given(bipartite_strategy())
    def test_maximum_size_matches_networkx(self, adjacency):
        if not adjacency:
            return
        match_left, match_right = hopcroft_karp(adjacency, num_right=len(adjacency))
        size = sum(1 for v in match_left if v != -1)
        assert size == matching_size_networkx(adjacency)
        # Consistency of the two sides.
        for u, v in enumerate(match_left):
            if v != -1:
                assert match_right[v] == u


class TestMinimumPathCover:
    @settings(max_examples=25, deadline=None)
    @given(
        st.tuples(
            st.integers(min_value=1, max_value=25),
            st.integers(min_value=1, max_value=3),
            st.integers(min_value=0, max_value=9999),
        ).map(lambda args: random_vectors(args[2], args[0], args[1]))
    )
    def test_cover_properties(self, vectors):
        """Theorem 2: disjoint, complete, and of minimal size |V| - |M|."""
        adjacency = dominance_adjacency(vectors)
        paths = minimum_path_cover(adjacency)
        seen = [v for path in paths for v in path]
        assert sorted(seen) == list(range(len(adjacency)))  # complete+disjoint
        match_left, _ = hopcroft_karp(adjacency, num_right=len(adjacency))
        matched = sum(1 for v in match_left if v != -1)
        assert len(paths) == len(adjacency) - matched  # Fulkerson's identity

    @settings(max_examples=25, deadline=None)
    @given(
        st.tuples(
            st.integers(min_value=1, max_value=20),
            st.integers(min_value=1, max_value=3),
            st.integers(min_value=0, max_value=9999),
        ).map(lambda args: random_vectors(args[2], args[0], args[1]))
    )
    def test_paths_follow_dominance(self, vectors):
        """Consecutive path vertices must be ordered (dominating first)."""
        adjacency = dominance_adjacency(vectors)
        edges = {(u, v) for u, children in enumerate(adjacency) for v in children}
        for path in minimum_path_cover(adjacency):
            for a, b in zip(path, path[1:]):
                assert (a, b) in edges

    def test_antichain_gives_singletons(self):
        vectors = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.49]])
        paths = minimum_path_cover(dominance_adjacency(vectors))
        assert sorted(len(p) for p in paths) == [1, 1, 1]

    def test_chain_gives_one_path(self):
        vectors = np.array([[0.9], [0.5], [0.1]])
        paths = minimum_path_cover(dominance_adjacency(vectors))
        assert len(paths) == 1
        assert paths[0] == [0, 1, 2]


class TestGreedyPathCover:
    @settings(max_examples=20, deadline=None)
    @given(
        st.tuples(
            st.integers(min_value=1, max_value=20),
            st.integers(min_value=1, max_value=3),
            st.integers(min_value=0, max_value=9999),
        ).map(lambda args: random_vectors(args[2], args[0], args[1]))
    )
    def test_valid_cover_but_maybe_larger(self, vectors):
        adjacency = dominance_adjacency(vectors)
        greedy = greedy_path_cover(adjacency)
        optimal = minimum_path_cover(adjacency)
        seen = sorted(v for path in greedy for v in path)
        assert seen == list(range(len(adjacency)))
        assert len(greedy) >= len(optimal)


class TestRestrictedAdjacency:
    def test_relabeling(self):
        graph = PairGraph([(0, 1), (0, 2), (1, 2)], np.array([[0.9], [0.5], [0.1]]))
        active = np.array([True, False, True])
        sub, ids = restricted_adjacency(graph.reachability, active)
        assert list(ids) == [0, 2]
        assert sub == [[1], []]  # 0 -> 2 becomes 0 -> 1 in compact ids
