"""Tests for partial-order graph analysis utilities.

The statistics read the reachability index; every one is pinned on the
paper's example and held to the verify references (tile lists, Kahn
peeling and the from-scratch path cover) on quantized vectors with ties,
NaN and signed zeros.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import paper_pairs, paper_table, paper_vectors
from repro.data.ground_truth import pair_truth
from repro.exceptions import GraphError
from repro.graph import (
    GroupedGraph,
    PairGraph,
    build_graph,
    count_order_violations,
    order_statistics,
    split_grouping,
    transitive_reduction,
)
from repro.verify import naive_kahn_layers, reference_relation
from repro.verify.relation import minimum_path_cover

from conftest import random_vectors


def make_graph(vectors):
    return PairGraph([(i, i + 1000) for i in range(vectors.shape[0])], vectors)


class TestOrderStatistics:
    def test_paper_example(self):
        graph = PairGraph(paper_pairs(), paper_vectors())
        stats = order_statistics(graph)
        assert (stats.num_vertices, stats.num_edges, stats.depth, stats.width) == (
            18, 97, 10, 4,
        )
        assert stats.comparability == 97 / (18 * 17 / 2)
        assert str(stats) == "|V|=18 |E|=97 comparable=63.4% depth=10 width=4"

    def test_paper_example_grouped(self):
        """ε = 0.1 groups the 18 pairs into 9 vertices in |L| = 5 layers."""
        grouped = build_graph(paper_pairs(), paper_vectors(), 0.1)
        stats = order_statistics(grouped)
        assert (stats.num_vertices, stats.num_edges, stats.depth, stats.width) == (
            9, 24, 5, 3,
        )

    def test_chain(self):
        stats = order_statistics(make_graph(np.array([[0.9], [0.5], [0.1]])))
        assert stats.depth == 3
        assert stats.width == 1
        assert stats.comparability == 1.0

    def test_antichain(self):
        stats = order_statistics(make_graph(np.array([[1.0, 0.0], [0.0, 1.0]])))
        assert stats.depth == 1
        assert stats.width == 2
        assert stats.comparability == 0.0

    def test_skip_width(self):
        stats = order_statistics(
            make_graph(np.array([[0.9], [0.1]])), compute_width=False
        )
        assert stats.width == 0

    def test_str(self):
        text = str(order_statistics(make_graph(np.array([[0.5]]))))
        assert "|V|=1" in text


class TestTransitiveReduction:
    @settings(max_examples=25, deadline=None)
    @given(
        st.tuples(
            st.integers(min_value=1, max_value=20),
            st.integers(min_value=1, max_value=3),
            st.integers(min_value=0, max_value=9999),
        ).map(lambda args: random_vectors(args[2], args[0], args[1]))
    )
    def test_closure_of_reduction_is_full_relation(self, vectors):
        graph = make_graph(vectors)
        reduced = transitive_reduction(graph)
        digraph = nx.DiGraph(reduced)
        digraph.add_nodes_from(range(len(graph)))
        closure = {
            (u, int(v)) for u in digraph.nodes for v in nx.descendants(digraph, u)
        }
        relation = graph.reachability
        full = {
            (u, int(v)) for u in range(len(graph)) for v in relation.descendants(u)
        }
        assert closure == full

    def test_reduction_is_minimal_on_chain(self):
        graph = make_graph(np.array([[0.9], [0.5], [0.1]]))
        assert sorted(transitive_reduction(graph)) == [(0, 1), (1, 2)]

    def test_works_on_grouped_graph(self):
        base = PairGraph(paper_pairs(), paper_vectors())
        grouped = GroupedGraph(base, split_grouping(paper_vectors(), 0.1))
        reduced = transitive_reduction(grouped)
        assert len(reduced) <= order_statistics(grouped).num_edges

    def test_paper_example_hasse_edges(self):
        pair_graph = PairGraph(paper_pairs(), paper_vectors())
        grouped = build_graph(paper_pairs(), paper_vectors(), 0.1)
        assert len(transitive_reduction(pair_graph)) == 21
        assert len(transitive_reduction(grouped)) == 11


class TestOrderViolations:
    def test_paper_example_has_none(self):
        graph = PairGraph(paper_pairs(), paper_vectors())
        truth = pair_truth(paper_table(), paper_pairs())
        violations, comparable = count_order_violations(graph, truth)
        assert violations == 0
        assert comparable == 97

    def test_constructed_violation(self):
        # v0 (non-match) dominates v1 (match): one violation.
        pairs = [(0, 1), (2, 3)]
        vectors = np.array([[0.9, 0.9], [0.5, 0.5]])
        graph = PairGraph(pairs, vectors)
        truth = {(0, 1): False, (2, 3): True}
        assert count_order_violations(graph, truth) == (1, 1)

    def test_requires_pair_graph(self):
        base = PairGraph(paper_pairs(), paper_vectors())
        grouped = GroupedGraph(base, split_grouping(paper_vectors(), 0.1))
        with pytest.raises(GraphError):
            count_order_violations(grouped, {})

    def test_small_table_rate_is_low(self, small_bundle):
        """The paper's claim 'few pairs invalidate the partial order' holds
        on our synthetic data too."""
        _, pairs, vectors, truth = small_bundle
        graph = PairGraph(pairs, vectors)
        violations, comparable = count_order_violations(graph, truth)
        assert comparable > 0
        assert violations / comparable < 0.02


#: Cells for the property below: ties, NaN (which compares false) and a
#: zero of either sign.
CELLS = [0.0, -0.0, 1 / 3, 2 / 3, 1.0, float("nan")]


def quantized_graph(cells, n, m, grouped):
    """*n* vertices over *cells*; grouped pairs base vertices 2g and 2g+1."""
    rows = 2 * n if grouped else n
    vectors = np.array(cells[: rows * m], dtype=np.float64).reshape(rows, m)
    base = PairGraph([(2 * i, 2 * i + 1) for i in range(rows)], vectors)
    if not grouped:
        return base
    return GroupedGraph(base, [[2 * g, 2 * g + 1] for g in range(n)])


@st.composite
def quantized_instances(draw):
    n = draw(st.integers(0, 24))
    m = draw(st.integers(1, 3))
    grouped = draw(st.booleans())
    size = (2 * n if grouped else n) * m
    cells = draw(st.lists(st.sampled_from(CELLS), min_size=size, max_size=size))
    labels = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return quantized_graph(cells, n, m, grouped), labels


class TestAgainstTheReferences:
    @settings(max_examples=40, deadline=None)
    @given(quantized_instances())
    def test_every_statistic_equals_its_reference(self, instance):
        graph, labels = instance
        n = len(graph)
        lists = [row.tolist() for row in reference_relation(graph).lists]
        edges = {(u, v) for u, row in enumerate(lists) for v in row}
        stats = order_statistics(graph)
        assert stats.num_vertices == n
        assert stats.num_edges == len(edges)
        assert stats.depth == len(naive_kahn_layers(graph))
        assert stats.width == (len(minimum_path_cover(lists)) if n else 0)
        assert stats.comparability == (len(edges) / (n * (n - 1) / 2) if n >= 2 else 0.0)
        hasse = {
            (u, v)
            for u, v in edges
            if not any((u, w) in edges and (w, v) in edges for w in range(n))
        }
        assert transitive_reduction(graph) == sorted(hasse)
        if isinstance(graph, PairGraph):
            truth = dict(zip(graph.pairs, labels))
            violations = sum(1 for u, v in edges if not labels[u] and labels[v])
            assert count_order_violations(graph, truth) == (violations, len(edges))
