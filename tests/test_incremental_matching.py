"""Tests for the warm-start incremental path-cover engine."""

import sys

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError
from repro.graph import (
    IncrementalPathCover,
    PairGraph,
    hopcroft_karp,
    minimum_path_cover,
    restricted_adjacency,
)

from conftest import random_vectors


def make_graph(seed: int, n: int, m: int = 3) -> PairGraph:
    vectors = random_vectors(seed, n, m)
    pairs = [(2 * i, 2 * i + 1) for i in range(n)]
    return PairGraph(pairs, vectors)


def reference_cover(graph: PairGraph, active: np.ndarray) -> list[list[int]]:
    sub_adjacency, original_ids = restricted_adjacency(graph.adjacency(), active)
    paths = minimum_path_cover(sub_adjacency)
    return [[int(original_ids[v]) for v in path] for path in paths]


def matching_size_networkx(adjacency, active):
    graph = nx.Graph()
    n = len(adjacency)
    left = {u for u in range(n) if active[u]}
    graph.add_nodes_from(left, bipartite=0)
    for u in left:
        for v in adjacency[u]:
            if active[v]:
                graph.add_edge(u, n + int(v))
    if not graph.edges:
        return 0
    matching = nx.bipartite.maximum_matching(graph, top_nodes=left)
    return sum(1 for k in matching if k in left)


class TestAgainstScratch:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=999))
    def test_cover_identical_across_deletions(self, seed):
        """The engine's cover must equal the scratch decomposition after
        every step of a random deletion sequence — not just cardinality, the
        exact same paths in the same order."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 45))
        graph = make_graph(seed=seed, n=n)
        engine = IncrementalPathCover(graph.build_reachability())
        active = np.ones(n, dtype=bool)
        while active.any():
            assert engine.cover(active) == reference_cover(graph, active)
            remaining = np.flatnonzero(active)
            drop = rng.choice(remaining, size=min(len(remaining), int(rng.integers(1, 4))), replace=False)
            active[drop] = False
        assert engine.cover(active) == []

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=999))
    def test_matching_cardinality_vs_networkx(self, seed):
        """Dilworth: |paths| = |active| - |maximum matching|, with the
        matching size cross-checked against networkx."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 35))
        graph = make_graph(seed=seed + 10_000, n=n)
        engine = IncrementalPathCover(graph.build_reachability())
        active = rng.random(n) < 0.7
        paths = engine.cover(active)
        expected = matching_size_networkx(graph.adjacency(), active)
        assert int(active.sum()) - len(paths) == expected


class TestRegressions:
    def test_empty_active_set(self):
        graph = make_graph(seed=1, n=8)
        engine = IncrementalPathCover(graph.build_reachability())
        assert engine.cover(np.zeros(8, dtype=bool)) == []

    def test_singleton(self):
        graph = make_graph(seed=2, n=8)
        engine = IncrementalPathCover(graph.build_reachability())
        active = np.zeros(8, dtype=bool)
        active[3] = True
        assert engine.cover(active) == [[3]]

    def test_grown_active_set_rejected(self):
        """Coloring only ever shrinks the active set; re-activating a
        deleted vertex would invalidate the warm-start matching."""
        graph = make_graph(seed=3, n=10)
        engine = IncrementalPathCover(graph.build_reachability())
        active = np.ones(10, dtype=bool)
        active[4] = False
        engine.cover(active)
        active[4] = True
        with pytest.raises(GraphError):
            engine.cover(active)

    def test_repeated_cover_without_deletions(self):
        graph = make_graph(seed=4, n=20)
        engine = IncrementalPathCover(graph.build_reachability())
        active = np.ones(20, dtype=bool)
        first = engine.cover(active)
        assert engine.cover(active) == first == reference_cover(graph, active)

    def test_stats_hold_only_counts_and_augmenting_is_a_span(self):
        """The engine keeps no stopwatch: its stats are counts, and each
        cover's augmenting phases are one ``selection.augment`` span."""
        from repro.obs import Observability, activated, structure

        graph = make_graph(seed=5, n=20)
        engine = IncrementalPathCover(graph.build_reachability())
        active = np.ones(20, dtype=bool)
        with activated(Observability(tracing=True, metrics=False)) as obs:
            engine.cover(active)
            active[:5] = False
            engine.cover(active)
        assert structure(obs.tracer.export()) == [(0, "selection.augment")] * 2
        assert set(engine.stats) == {
            "covers", "scratch_builds", "suffix_lefts", "deleted_vertices"
        }
        assert all(type(count) is int for count in engine.stats.values())


class TestIterativeDepthFirstSearch:
    def test_long_chain_does_not_touch_recursion_limit(self):
        """A 3000-deep augmenting structure used to require a
        setrecursionlimit escape hatch; the explicit-stack DFS must handle
        it with the limit untouched."""
        n = 3000
        limit = sys.getrecursionlimit()
        adjacency = [[u, u + 1] if u + 1 < n else [u] for u in range(n)]
        match_left, match_right = hopcroft_karp(adjacency, num_right=n)
        assert sys.getrecursionlimit() == limit
        assert sum(1 for v in match_left if v >= 0) == n
