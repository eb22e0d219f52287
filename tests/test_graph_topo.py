"""Tests for topological layering (§5.3.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError
from repro.graph import PairGraph, middle_layer, topological_layers
from repro.verify import decline_reachability
from repro.verify.relation import vectorized_edges

from conftest import random_vectors


def make_graph(vectors):
    pairs = [(i, i + 1000) for i in range(vectors.shape[0])]
    return PairGraph(pairs, vectors)


def kahn_reference(vectors, active=None):
    """Straightforward Kahn peeling over the full dominance relation."""
    n = vectors.shape[0]
    if active is None:
        active = np.ones(n, dtype=bool)
    edges = [
        (u, v) for u, v in vectorized_edges(vectors) if active[u] and active[v]
    ]
    remaining = set(np.flatnonzero(active))
    layers = []
    while remaining:
        indegree = {v: 0 for v in remaining}
        for u, v in edges:
            if u in remaining and v in remaining:
                indegree[v] += 1
        layer = sorted(v for v in remaining if indegree[v] == 0)
        layers.append(layer)
        remaining -= set(layer)
    return layers


class TestTopologicalLayers:
    @settings(max_examples=30, deadline=None)
    @given(
        st.tuples(
            st.integers(min_value=0, max_value=25),
            st.integers(min_value=1, max_value=3),
            st.integers(min_value=0, max_value=9999),
        ).map(lambda args: random_vectors(args[2], args[0], args[1]))
    )
    def test_matches_kahn_reference(self, vectors):
        graph = make_graph(vectors)
        got = [sorted(int(v) for v in layer) for layer in topological_layers(graph)]
        assert got == kahn_reference(vectors)

    @settings(max_examples=20, deadline=None)
    @given(
        st.tuples(
            st.integers(min_value=1, max_value=20),
            st.integers(min_value=1, max_value=3),
            st.integers(min_value=0, max_value=9999),
            st.integers(min_value=0, max_value=9999),
        ).map(
            lambda args: (
                random_vectors(args[2], args[0], args[1]),
                np.random.default_rng(args[3]).random(args[0]) < 0.6,
            )
        )
    )
    def test_restriction_to_active_subset(self, data):
        vectors, active = data
        graph = make_graph(vectors)
        got = [sorted(int(v) for v in layer) for layer in topological_layers(graph, active)]
        assert got == kahn_reference(vectors, active)

    def test_chain_layers(self):
        vectors = np.array([[0.9], [0.5], [0.1]])
        layers = topological_layers(make_graph(vectors))
        assert [list(l) for l in layers] == [[0], [1], [2]]

    def test_antichain_single_layer(self):
        vectors = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.4]])
        layers = topological_layers(make_graph(vectors))
        assert len(layers) == 1
        assert sorted(layers[0]) == [0, 1, 2]

    def test_empty_active_mask(self):
        vectors = np.array([[0.5], [0.7]])
        layers = topological_layers(make_graph(vectors), np.zeros(2, dtype=bool))
        assert layers == []

    @pytest.mark.parametrize("indexed", [False, True])
    def test_float_sum_tie_keeps_dominance_order(self, indexed):
        """Vertex 1 dominates 0, which dominates 2, but the float sums of
        rows 0 and 1 both round to 1.0: a descending-sum order put vertex 0
        first and layered it together with 2.  Both the index and the
        reference relation's peeling keep the order."""
        vectors = np.array([[1.0, 0.0], [1.0, 1e-17], [0.5, 0.0]])
        graph = make_graph(vectors)
        if not indexed:
            decline_reachability(graph)
        layers = topological_layers(graph)
        assert [[int(v) for v in layer] for layer in layers] == [[1], [0], [2]]

    def test_bad_mask_shape(self):
        vectors = np.array([[0.5]])
        with pytest.raises(GraphError):
            topological_layers(make_graph(vectors), np.zeros(5, dtype=bool))


class TestMiddleLayer:
    def test_paper_indexing(self):
        layers5 = [np.array([i]) for i in range(5)]
        assert middle_layer(layers5)[0] == 2  # L3 of five (paper Fig. 7)
        layers2 = [np.array([10]), np.array([20])]
        assert middle_layer(layers2)[0] == 10  # g2 before g8 (paper §6)
        layers1 = [np.array([7])]
        assert middle_layer(layers1)[0] == 7

    def test_empty_rejected(self):
        with pytest.raises(GraphError):
            middle_layer([])
