"""Invariant checkers and the VerifyingSession sanitizer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crowd import PerfectCrowd, SimulatedCrowd, WorkerPool
from repro.exceptions import VerificationError
from repro.graph import PairGraph
from repro.graph.grouped_graph import GroupedGraph
from repro.graph.grouping import split_grouping
from repro.selection import SELECTORS
from repro.verify import (
    VerifyingSession,
    check_acyclicity,
    check_cluster_union_find,
    check_grouped_partition,
    check_partial_order,
    check_path_cover,
    check_session_coherence,
    check_topo_layers,
    naive_kahn_layers,
    random_instance,
)


@pytest.fixture(params=range(5))
def instance(request):
    return random_instance(request.param)


class TestGraphInvariants:
    def test_partial_order_laws(self, instance):
        pairs, vectors = instance
        check_partial_order(PairGraph(pairs, vectors))

    def test_acyclicity(self, instance):
        pairs, vectors = instance
        check_acyclicity(PairGraph(pairs, vectors))

    def test_topo_layers_match_kahn(self, instance):
        pairs, vectors = instance
        graph = PairGraph(pairs, vectors)
        check_topo_layers(graph)
        # And on a strict subset of the vertices.
        active = np.zeros(len(graph), dtype=bool)
        active[:: 2] = True
        check_topo_layers(graph, active)

    def test_path_cover_valid(self, instance):
        pairs, vectors = instance
        check_path_cover(PairGraph(pairs, vectors))

    def test_grouped_partition(self, instance):
        pairs, vectors = instance
        base = PairGraph(pairs, vectors)
        grouped = GroupedGraph(base, split_grouping(vectors, 0.15))
        check_grouped_partition(grouped)
        check_partial_order(grouped)
        check_topo_layers(grouped)

    def test_naive_kahn_on_chain(self):
        graph = PairGraph(
            [(0, 1), (2, 3), (4, 5)],
            np.array([[0.9, 0.9], [0.5, 0.5], [0.1, 0.1]]),
        )
        assert naive_kahn_layers(graph) == [[0], [1], [2]]

    def test_reflexive_relation_detected(self, monkeypatch):
        from repro.verify import relation

        pairs, vectors = random_instance(0)
        reflexive = [np.arange(len(pairs))] * len(pairs)

        monkeypatch.setattr(relation, "blocked_dominance_lists", lambda *args: reflexive)
        with pytest.raises(VerificationError, match="reflexive"):
            check_partial_order(PairGraph(pairs, vectors))

    def test_overlapping_cover_detected(self, monkeypatch):
        from repro.verify import relation

        original = relation.minimum_path_cover

        def overlapping(adjacency):
            paths = original(adjacency)
            if len(paths) >= 2:
                paths[1] = [paths[0][0]] + paths[1]
            return paths

        monkeypatch.setattr(relation, "minimum_path_cover", overlapping)
        pairs, vectors = random_instance(0)
        with pytest.raises(VerificationError, match="disjoint"):
            check_path_cover(PairGraph(pairs, vectors))


class TestClusterInvariant:
    def test_union_find_matches_bfs(self):
        check_cluster_union_find(10, [(0, 1), (1, 2), (5, 6), (8, 9)])

    def test_empty_matches(self):
        check_cluster_union_find(4, [])


class TestSessionCoherence:
    def test_healthy_session(self):
        pairs, _ = random_instance(0)
        truth = {pair: True for pair in pairs}
        session = PerfectCrowd(truth).session(pairs_per_hit=5)
        session.ask_batch(pairs[:13])
        check_session_coherence(session)

    def test_billing_floor_detected(self, monkeypatch):
        from repro.crowd.platform import CrowdSession

        def floored(self):
            if not self._asked:
                return 0
            return (len(self._asked) // self.pairs_per_hit) * self.crowd.assignments

        monkeypatch.setattr(CrowdSession, "hits", property(floored))
        pairs, _ = random_instance(0)
        truth = {pair: True for pair in pairs}
        session = PerfectCrowd(truth).session(pairs_per_hit=5)
        session.ask_batch(pairs[:13])
        with pytest.raises(VerificationError, match="billing drifted"):
            check_session_coherence(session)


class TestVerifyingSession:
    def _session(self, seed=0, band=None):
        pairs, _ = random_instance(seed)
        truth = {pair: bool(index % 2) for index, pair in enumerate(pairs)}
        if band is None:
            crowd = PerfectCrowd(truth)
        else:
            crowd = SimulatedCrowd(
                truth, pool=WorkerPool(accuracy_range=band, seed=seed), assignments=5
            )
        return pairs, VerifyingSession(crowd.session())

    def test_transparent_for_healthy_sessions(self):
        pairs, session = self._session()
        first = session.ask_batch(pairs[:6])
        again = session.ask(pairs[0])
        assert again == first[pairs[0]]
        assert session.questions_asked == 6
        assert session.iterations == 2

    def test_full_selector_run_under_sanitizer(self):
        pairs, vectors = random_instance(1)
        truth = {pair: bool(index % 2) for index, pair in enumerate(pairs)}
        session = VerifyingSession(PerfectCrowd(truth).session())
        result = SELECTORS["power"](seed=1).run(PairGraph(pairs, vectors), session)
        assert result.questions == session.questions_asked

    def test_catches_cache_poisoning(self):
        # PerfectCrowd recomputes; only SimulatedCrowd uses the answer cache.
        pairs, session = self._session(band="80")
        session.ask_batch(pairs[:3])
        # Corrupt the platform's cache behind the sanitizer's back.
        inner = session._inner
        poisoned = inner.crowd._cache[pairs[0]]
        inner.crowd._cache[pairs[0]] = type(poisoned)(
            answer=not poisoned.answer,
            confidence=poisoned.confidence,
            votes=poisoned.votes,
        )
        with pytest.raises(VerificationError, match="cache incoherence"):
            session.ask(pairs[0])

    def test_catches_billing_drift(self, monkeypatch):
        from repro.crowd.platform import CrowdSession

        pairs, session = self._session()
        session.ask_batch(pairs[:3])

        def inflated(self):
            return 999

        monkeypatch.setattr(CrowdSession, "hits", property(inflated))
        with pytest.raises(VerificationError, match="billing drifted"):
            session.ask(pairs[4])

    def test_catches_confidence_out_of_range(self):
        pairs, session = self._session()
        inner = session._inner

        class Lying:
            def __getattr__(self, name):
                return getattr(inner, name)

            def ask_batch(self, batch):
                answers = inner.ask_batch(batch)
                return {
                    pair: type(outcome)(
                        answer=outcome.answer,
                        confidence=1.5,
                        votes=outcome.votes,
                    )
                    for pair, outcome in answers.items()
                }

        lying = VerifyingSession(Lying())
        with pytest.raises(VerificationError, match="confidence"):
            lying.ask(pairs[0])
