"""Tests for DOT export."""

import pytest

from repro.data import paper_pairs, paper_vectors
from repro.graph import ColoringState, PairGraph
from repro.viz import save_dot, to_dot


@pytest.fixture()
def graph():
    return PairGraph(paper_pairs(), paper_vectors())


class TestToDot:
    def test_structure(self, graph):
        dot = to_dot(graph)
        assert dot.startswith("digraph partial_order {")
        assert dot.rstrip().endswith("}")
        # Every vertex declared.
        for vertex in range(len(graph)):
            assert f"v{vertex} [" in dot

    def test_hasse_edges_only_by_default(self, graph):
        from repro.graph import transitive_reduction

        dot = to_dot(graph)
        assert dot.count(" -> ") == len(transitive_reduction(graph))

    def test_full_relation_option(self, graph):
        dot = to_dot(graph, reduce_edges=False)
        assert dot.count(" -> ") == graph.num_edges

    def test_colors_painted(self, graph):
        state = ColoringState(graph)
        state.apply_round([0], [True])
        dot = to_dot(graph, state=state)
        assert "palegreen" in dot
        # The asked vertex is highlighted.
        assert "penwidth=2" in dot

    def test_blue_color(self, graph):
        state = ColoringState(graph)
        state.apply_round([3], [None])
        assert "lightblue" in to_dot(graph, state=state)

    def test_labels_use_paper_names(self, graph):
        dot = to_dot(graph)
        assert "p1,2" in dot  # the paper's pair naming

    def test_grouped_vertex_label_truncated(self):
        from repro.graph import GroupedGraph

        base = PairGraph(paper_pairs(), paper_vectors())
        grouped = GroupedGraph(base, [list(range(len(base)))])
        dot = to_dot(grouped)
        assert "... +" in dot


class TestSaveDot:
    def test_writes_file(self, graph, tmp_path):
        path = save_dot(graph, tmp_path / "g.dot")
        content = path.read_text()
        assert content.startswith("digraph")
