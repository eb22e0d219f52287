"""Selector-level tests for the incremental fast paths and their references.

Production selection has one loop over one relation: the graph's
reachability index.  The reference paths run when a graph holds the
reference relation instead, through
:func:`repro.verify.decline_reachability`, which is how these tests reach
them.
"""

import numpy as np
import pytest

from repro.crowd import PerfectCrowd, SimulatedCrowd, WorkerPool
from repro.graph import GroupedGraph, PairGraph, split_grouping
from repro.selection import SELECTORS
from repro.verify import ReferenceRelation, decline_reachability

from conftest import random_vectors

PATH_SELECTORS = ["single-path", "multi-path", "power"]


def make_workload(seed: int, n: int = 60):
    vectors = random_vectors(seed, n, 3)
    pairs = [(2 * i, 2 * i + 1) for i in range(n)]
    truth = {pair: bool(vectors[v].mean() > 0.5) for v, pair in enumerate(pairs)}
    return pairs, vectors, truth


def run_selector(name, pairs, vectors, truth, reference=False, grouped=False, seed=0):
    """One run on a fresh graph; ``reference=True`` declines its index."""
    graph = PairGraph(pairs, vectors)
    if grouped:
        graph = GroupedGraph(graph, split_grouping(vectors, 0.1))
    if reference:
        decline_reachability(graph)
    crowd = SimulatedCrowd(truth, WorkerPool(seed=seed))
    return SELECTORS[name](seed=seed).run(graph, crowd.session())


class TestByteIdentical:
    @pytest.mark.parametrize("name", PATH_SELECTORS)
    def test_same_transcript_and_coloring(self, name):
        """The incremental engine must change nothing observable: same
        questions in the same order, same final colors, same labels."""
        pairs, vectors, truth = make_workload(seed=7)
        fast = run_selector(name, pairs, vectors, truth)
        slow = run_selector(name, pairs, vectors, truth, reference=True)
        assert fast.extras["selection"]["incremental"] is True
        assert slow.extras["selection"]["incremental"] is False
        assert fast.state.asked_order == slow.state.asked_order
        assert np.array_equal(fast.state.colors, slow.state.colors)
        assert fast.labels == slow.labels
        assert (fast.questions, fast.iterations) == (slow.questions, slow.iterations)

    @pytest.mark.parametrize("name", ["single-path", "multi-path"])
    def test_same_transcript_on_grouped_graph(self, name):
        pairs, vectors, truth = make_workload(seed=11)
        fast = run_selector(name, pairs, vectors, truth, grouped=True)
        slow = run_selector(name, pairs, vectors, truth, reference=True, grouped=True)
        assert fast.state.asked_order == slow.state.asked_order
        assert fast.labels == slow.labels


class TestTelemetry:
    def test_extras_carry_selection_telemetry(self):
        pairs, vectors, truth = make_workload(seed=3)
        result = run_selector("single-path", pairs, vectors, truth)
        telemetry = result.extras["selection"]
        assert telemetry["incremental"] is True
        assert telemetry["rounds"] >= 1
        engine = telemetry["engine"]
        assert engine["covers"] >= 1
        assert engine["scratch_builds"] >= 1  # the first cover is a scratch build

    @pytest.mark.parametrize("name", sorted(SELECTORS))
    def test_extras_hold_only_counts(self, name):
        """Times are spans and timed regions, so the telemetry keeps counts:
        ``rounds`` and ``incremental``, plus the path-cover engine's
        counters when that engine ran."""
        pairs, vectors, truth = make_workload(seed=3)
        telemetry = run_selector(name, pairs, vectors, truth).extras["selection"]
        engine = {"engine"} if name in ("single-path", "multi-path") else set()
        assert set(telemetry) == {"rounds", "incremental"} | engine
        for count in telemetry.get("engine", {}).values():
            assert type(count) is int

    def test_reference_run_reports_incremental_off(self):
        pairs, vectors, truth = make_workload(seed=3)
        result = run_selector("single-path", pairs, vectors, truth, reference=True)
        assert result.extras["selection"]["incremental"] is False

    def test_perfect_crowd_also_reports(self):
        pairs, vectors, truth = make_workload(seed=5)
        graph = PairGraph(pairs, vectors)
        result = SELECTORS["multi-path"]().run(graph, PerfectCrowd(truth).session())
        assert result.extras["selection"]["rounds"] == result.iterations


class TestDeclinedIndex:
    def test_declined_index_forces_reference_path(self):
        pairs, vectors, truth = make_workload(seed=9)
        graph = decline_reachability(PairGraph(pairs, vectors))
        result = SELECTORS["single-path"]().run(graph, PerfectCrowd(truth).session())
        assert isinstance(graph.reachability, ReferenceRelation)
        telemetry = result.extras["selection"]
        assert telemetry["incremental"] is False
        # The warm-started path cover never ran: every cover was scratch.
        engine = telemetry["engine"]
        assert engine["covers"] == engine["scratch_builds"] >= 1
        assert engine["deleted_vertices"] == engine["suffix_lefts"] == 0

    def test_an_indexed_graph_cannot_decline(self):
        pairs, vectors, _ = make_workload(seed=2, n=10)
        graph = PairGraph(pairs, vectors)
        assert graph.reachability is not None
        with pytest.raises(ValueError, match="already holds"):
            decline_reachability(graph)
