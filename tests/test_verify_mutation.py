"""The mutation self-test: every seeded bug must be detected."""

from __future__ import annotations

import numpy as np
import pytest

from repro.verify import MUTANTS, run_detection_battery, run_mutation_selftest
from repro.verify.mutation import detected_mutants


class TestMutationSelfTest:
    def test_catalog_has_at_least_six_mutants(self):
        assert len(MUTANTS) >= 6
        assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)

    def test_pristine_battery_passes(self):
        run_detection_battery(seed=0)

    def test_every_mutant_is_detected(self):
        report = run_mutation_selftest(seed=0)
        assert report.passed, report.summary()
        assert set(detected_mutants(report)) == {mutant.name for mutant in MUTANTS}

    @pytest.mark.parametrize("seed", [1, 2])
    def test_detection_is_seed_robust(self, seed):
        report = run_mutation_selftest(seed=seed)
        assert report.passed, report.summary()

    def test_patches_are_fully_restored(self):
        import repro.crowd.platform as platform
        import repro.graph.construction as construction
        import repro.graph.matching as matching
        import repro.graph.topo as topo
        from repro.crowd.platform import CrowdSession
        from repro.graph.coloring import ColoringState
        from repro.graph.dag import PairGraph
        from repro.graph.reachability import ReachabilityIndex
        import repro.similarity.batch as batch
        import repro.similarity.join as join
        from repro.serve.sessions import SessionRegistry
        from repro.similarity.batch import TokenIndex

        before = (
            batch.sparse_jaccard_join,
            join.sparse_jaccard_join,
            construction.blocked_dominance_lists,
            construction._dominance_tiles,
            ReachabilityIndex.__dict__["build"],
            topo.topological_layers,
            matching.minimum_path_cover,
            platform.weighted_majority_vote,
            ColoringState.apply_answer,
            PairGraph.descendant_mask,
            CrowdSession.hits,
            TokenIndex.extend,
            SessionRegistry._restore_resolver,
        )
        run_mutation_selftest(seed=0)
        after = (
            batch.sparse_jaccard_join,
            join.sparse_jaccard_join,
            construction.blocked_dominance_lists,
            construction._dominance_tiles,
            ReachabilityIndex.__dict__["build"],
            topo.topological_layers,
            matching.minimum_path_cover,
            platform.weighted_majority_vote,
            ColoringState.apply_answer,
            PairGraph.descendant_mask,
            CrowdSession.hits,
            TokenIndex.extend,
            SessionRegistry._restore_resolver,
        )
        assert before == after

    def test_stale_index_is_caught_only_by_the_stream_step(self):
        """The stream-equivalence step has exclusive teeth for this mutant.

        Under ``stream-stale-index`` the full battery must scream *and* the
        failure must come from the stream check: the same battery with the
        stream step disabled sails through, because no other check ever
        exercises ``TokenIndex.extend``.
        """
        from repro.exceptions import VerificationError

        mutant = next(m for m in MUTANTS if m.name == "stream-stale-index")
        with mutant.activate():
            with pytest.raises(VerificationError, match="stream-equivalence"):
                run_detection_battery(seed=0)
        # The serve step is off too: it hosts the same resolver, so the
        # stale-index corruption hits server and reference runs alike and
        # only the stream step can see it.
        with mutant.activate():
            run_detection_battery(
                seed=0, include_stream=False, include_serve=False
            )

    def test_serve_leak_is_caught_only_by_the_serve_step(self):
        """Cross-session state leaks are invisible below the registry.

        ``serve-cross-session-leak`` makes the registry hand a restored
        session another live tenant's resolver — every single-session
        check still passes, so only the serve-equivalence step (which
        interleaves tenants through evict/restore cycles) can catch it.
        """
        from repro.exceptions import VerificationError

        mutant = next(
            m for m in MUTANTS if m.name == "serve-cross-session-leak"
        )
        with mutant.activate():
            with pytest.raises(VerificationError, match="serve-equivalence"):
                run_detection_battery(seed=0)
        with mutant.activate():
            run_detection_battery(seed=0, include_serve=False)

    def test_plan_mutant_is_caught_only_by_the_plan_step(self):
        """Transparency violations are invisible to every other check.

        ``plan-changes-results`` makes ``apply_plan`` flip a semantic knob
        (epsilon) alongside the performance knobs.  Every other battery
        step runs with ``plan="off"`` and never routes through
        ``apply_plan``, so only the plan-transparency step — which
        compares planned runs (including adversarial plans) against the
        static baseline bit-for-bit — can catch it.
        """
        from repro.exceptions import VerificationError

        mutant = next(m for m in MUTANTS if m.name == "plan-changes-results")
        with mutant.activate():
            with pytest.raises(VerificationError, match="plan-transparency"):
                run_detection_battery(seed=0)
        with mutant.activate():
            run_detection_battery(seed=0, include_plan=False)

    def test_join_range_mutant_is_caught_by_the_join_tiling_check(self):
        """The range form of the candidate join has its own teeth.

        ``join-range-no-replay`` leaves the whole-table join intact (a
        range starting at 0 has nothing to replay), so the battery's join
        step can only catch it through its random tiling of the range form.
        """
        from repro.exceptions import VerificationError
        from repro.similarity import similar_pairs
        from repro.similarity.tokenize import word_tokens
        from repro.verify import check_join_methods, naive_join
        from repro.verify.mutation import _battery_table

        table = _battery_table()
        tokens = [word_tokens(table.record_text(r.record_id)) for r in table]
        mutant = next(m for m in MUTANTS if m.name == "join-range-no-replay")
        with mutant.activate():
            assert similar_pairs(table, 0.2) == sorted(naive_join(tokens, 0.2))
            with pytest.raises(VerificationError, match="production join tiled"):
                check_join_methods(table, 0.2, seed=0)
            with pytest.raises(VerificationError, match="production join tiled"):
                run_detection_battery(seed=0)

    def test_dropped_edge_reaches_every_tile_consumer(self):
        """``drop-dominance-edge`` corrupts the tiles production reads.

        The shard adjacency task, the serial one-pass index build and the
        construction oracle all lose the edge silently (no crash), and
        ``check_dominance_construction`` still catches it.
        """
        from repro.exceptions import VerificationError
        from repro.graph import PairGraph
        from repro.shard import AdjacencyTask, compute_adjacency
        from repro.verify import check_dominance_construction, random_instance

        pairs, vectors = random_instance(0)
        expected = sum(len(c) for c in PairGraph(pairs, vectors).adjacency())
        task = AdjacencyTask(vectors, vectors, lo=0, hi=len(vectors))
        mutant = next(m for m in MUTANTS if m.name == "drop-dominance-edge")
        with mutant.activate():
            _, lists = compute_adjacency(task)
            assert sum(len(c) for c in lists) == expected - 1
            graph = PairGraph(pairs, vectors)
            index = graph.build_reachability()
            assert sum(len(c) for c in graph.adjacency()) == expected - 1
            assert int(np.unpackbits(index._desc).sum()) == expected - 1
            with pytest.raises(VerificationError, match="missing"):
                check_dominance_construction(vectors)

    def test_ragged_tile_mutant_is_caught_by_the_reachability_step(self):
        """Only the ancestor rows of the last, ragged tile go missing.

        The structural invariants read the adjacency lists, which stay
        intact, so they pass; ``check_reachability_index`` unpacks every
        ancestor row and fails.  A graph of whole tiles is untouched.
        """
        from repro.exceptions import VerificationError
        from repro.graph import PairGraph
        from repro.verify import (
            check_partial_order,
            check_reachability_index,
            check_topo_layers,
            random_instance,
        )

        mutant = next(m for m in MUTANTS if m.name == "reachability-ragged-tile")
        with mutant.activate():
            check_reachability_index(PairGraph(*random_instance(0, 256)))
            graph = PairGraph(*random_instance(0, 260))
            check_partial_order(graph)
            check_topo_layers(graph)
            with pytest.raises(VerificationError, match="ancestor row"):
                check_reachability_index(graph)

    def test_each_mutant_actually_changes_behavior(self):
        """Activating a mutant must make the pristine battery fail loudly."""
        for mutant in MUTANTS:
            with mutant.activate():
                with pytest.raises(Exception):  # noqa: B017 - any loud failure counts
                    run_detection_battery(seed=0)
