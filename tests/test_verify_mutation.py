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
        import repro.crowd.worker as worker
        import repro.graph.construction as construction
        import repro.graph.grouping as grouping
        import repro.graph.matching as matching
        import repro.graph.topo as topo
        from repro.crowd.platform import CrowdSession
        from repro.graph.coloring import ColoringState
        from repro.graph.dag import PairGraph
        from repro.graph.reachability import ReachabilityIndex
        import repro.similarity.batch as batch
        import repro.similarity.join as join
        from repro.core.incremental import IncrementalResolver
        from repro.serve.sessions import SessionRegistry
        from repro.similarity.batch import TokenIndex

        before = (
            batch.sparse_jaccard_join,
            join.sparse_jaccard_join,
            batch._overlap_floor,
            construction.blocked_dominance_lists,
            construction._dominance_tiles,
            construction.linear_extension,
            grouping._cell_keys,
            ReachabilityIndex.__dict__["build"],
            topo.topological_layers,
            matching.minimum_path_cover,
            platform.weighted_majority_vote,
            ColoringState._inference_votes,
            worker._lemire_threshold,
            PairGraph.descendant_mask,
            CrowdSession.hits,
            TokenIndex.extend,
            IncrementalResolver._batch_candidates,
            SessionRegistry._restore_resolver,
        )
        run_mutation_selftest(seed=0)
        after = (
            batch.sparse_jaccard_join,
            join.sparse_jaccard_join,
            batch._overlap_floor,
            construction.blocked_dominance_lists,
            construction._dominance_tiles,
            construction.linear_extension,
            grouping._cell_keys,
            ReachabilityIndex.__dict__["build"],
            topo.topological_layers,
            matching.minimum_path_cover,
            platform.weighted_majority_vote,
            ColoringState._inference_votes,
            worker._lemire_threshold,
            PairGraph.descendant_mask,
            CrowdSession.hits,
            TokenIndex.extend,
            IncrementalResolver._batch_candidates,
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

    def test_old_only_sweep_is_caught_only_by_the_stream_step(self):
        """``stream-sweep-old-only`` drops the pairs a batch makes with
        itself; the stream step's single-batch tier is all such pairs.

        Every other step either never sweeps (one-shot resolves) or runs
        the same mutated resolver on both of its sides (the serve step),
        so the battery without the stream and serve steps passes.
        """
        from repro.core import IncrementalResolver
        from repro.exceptions import VerificationError

        mutant = next(m for m in MUTANTS if m.name == "stream-sweep-old-only")
        with mutant.activate():
            resolver = IncrementalResolver(("a",))
            report = resolver.add_batch([("alpha beta",), ("alpha beta",)], [1, 1])
            assert report["new_pairs"] == 0  # the new×new pair is gone
            with pytest.raises(VerificationError, match="stream-equivalence"):
                run_detection_battery(seed=0)
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

    def test_midpoint_tie_is_caught_only_by_the_grouping_step(self):
        """A ``>=`` at Split's midpoint changes groups, not their validity.

        ``split-midpoint-tie`` reaches what ``build_graph`` runs (through
        ``GROUPING_ALGORITHMS``) and changes the groups of the battery's
        own fixture.  Every other step groups both of its sides with the
        same production code, so only the split-grouping step, which diffs
        against the per-node reference, can catch it.
        """
        from repro.exceptions import VerificationError
        from repro.graph import build_graph, split_grouping, validate_grouping
        from repro.verify import reference_split_grouping
        from repro.verify.mutation import _battery_fixture

        pairs, vectors = _battery_fixture(0)
        mutant = next(m for m in MUTANTS if m.name == "split-midpoint-tie")
        with mutant.activate():
            groups = split_grouping(vectors, 0.15)
            validate_grouping(vectors, groups, 0.15)
            assert groups != reference_split_grouping(vectors, 0.15)
            assert build_graph(pairs, vectors, 0.15).grouping == groups
            with pytest.raises(VerificationError, match="split-grouping"):
                run_detection_battery(seed=0)
        with mutant.activate():
            run_detection_battery(seed=0, include_grouping=False)

    def test_crowd_draw_mutant_is_caught_only_by_the_crowd_draw_step(
        self, monkeypatch
    ):
        """A bounded draw that never rejects is invisible to every resolve.

        ``crowd-draw-no-rejection`` only changes draws whose Lemire test
        would reject, about one in 10**8 with a 50-worker pool, so every
        crowd round of the battery answers as before; only the crowd-draw
        step, which draws near 2**31, catches it.
        """
        from repro.exceptions import VerificationError
        from repro.verify import check_crowd_draws, oracles

        mutant = next(m for m in MUTANTS if m.name == "crowd-draw-no-rejection")
        with mutant.activate():
            with pytest.raises(VerificationError, match="crowd-draw bounded"):
                check_crowd_draws(0)
            with pytest.raises(VerificationError, match="crowd-draw"):
                run_detection_battery(seed=0)
        monkeypatch.setattr(oracles, "check_crowd_draws", lambda seed=0: None)
        with mutant.activate():
            run_detection_battery(seed=0)

    def test_sum_order_is_caught_only_by_the_linear_extension_step(
        self, monkeypatch
    ):
        """A float-sum order is a linear extension wherever sums do not tie.

        ``sum-order-extension`` changes nothing on the battery's other
        instances, whose dominating rows all have larger float sums; on the
        float-sum tie instance the index stores vertex 0 before its
        dominator 1 and the fallback layering puts vertex 0 beside 2.  So
        only ``check_linear_extension`` catches it.
        """
        from repro.exceptions import VerificationError
        from repro.graph import PairGraph, topological_layers
        from repro.verify import (
            check_linear_extension,
            decline_reachability,
            float_sum_tie_instance,
            oracles,
        )

        pairs, vectors = float_sum_tie_instance()
        mutant = next(m for m in MUTANTS if m.name == "sum-order-extension")
        with mutant.activate():
            declined = decline_reachability(PairGraph(pairs, vectors))
            layers = [layer.tolist() for layer in topological_layers(declined)]
            assert layers == [[1], [0, 2]]
            index = PairGraph(pairs, vectors).build_reachability()
            assert index.order.tolist() == [0, 1, 2]
            with pytest.raises(VerificationError, match="not a linear extension"):
                check_linear_extension(pairs, vectors)
            with pytest.raises(VerificationError, match="not a linear extension"):
                run_detection_battery(seed=0)
        monkeypatch.setattr(oracles, "check_linear_extension", lambda *args: None)
        with mutant.activate():
            run_detection_battery(seed=0)

    @pytest.mark.parametrize(
        "name, band", [("inverted-propagation", "90"), ("weight-blind-votes", "70")]
    )
    def test_mutant_changes_a_production_resolve(self, name, band):
        """The re-aimed mutants reach the code a default resolve runs.

        ``inverted-propagation`` patches the round update's vote count and
        ``weight-blind-votes`` the aggregation every crowd round calls;
        each must change what ``PowerResolver.resolve`` returns.
        """
        from repro.core.resolver import PowerResolver
        from repro.verify.mutation import _battery_table

        table = _battery_table()

        def digest():
            result = PowerResolver().resolve(table, worker_band=band)
            return sorted(result.matches), result.questions, result.iterations

        pristine = digest()
        mutant = next(m for m in MUTANTS if m.name == name)
        with mutant.activate():
            assert digest() != pristine
        assert digest() == pristine

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
            pairs = similar_pairs(table, 0.2)
            assert set(pairs) == naive_join(tokens, 0.2)
            assert pairs == sorted(pairs)
            with pytest.raises(VerificationError, match="production join tiled"):
                check_join_methods(table, 0.2, seed=0)
            with pytest.raises(VerificationError, match="production join tiled"):
                run_detection_battery(seed=0)

    def test_overlap_ceil_is_caught_only_by_the_join_step(self, monkeypatch):
        """A floor taken from ``ceil(tau * size)`` loses only float-edge pairs.

        ``join-overlap-ceil`` asks a 25-token probe for 8 shared tokens at
        ``tau = 0.28``, so the 7-of-25 pair of the overlap-floor instance
        vanishes; no other battery table holds such a pair at its
        threshold, so the battery without ``check_join_methods`` passes.
        """
        from repro.exceptions import VerificationError
        from repro.similarity import similar_pairs
        from repro.verify import check_join_methods, oracles, overlap_floor_instance

        table, threshold = overlap_floor_instance()
        pristine = similar_pairs(table, threshold)
        mutant = next(m for m in MUTANTS if m.name == "join-overlap-ceil")
        with mutant.activate():
            assert similar_pairs(table, threshold) == [(0, 4)]
            with pytest.raises(VerificationError, match="production join"):
                check_join_methods(table, threshold)
            with pytest.raises(VerificationError, match="production join"):
                run_detection_battery(seed=0)
        assert similar_pairs(table, threshold) == pristine == [(0, 1), (0, 4), (2, 3)]
        monkeypatch.setattr(oracles, "check_join_methods", lambda *args, **kwargs: None)
        with mutant.activate():
            run_detection_battery(seed=0)

    def test_dropped_edge_reaches_every_tile_consumer(self):
        """``drop-dominance-edge`` corrupts the tiles production reads.

        The adjacency lists, the one-pass index build and the construction
        oracle all lose an edge silently (no crash), and
        ``check_dominance_construction`` still catches it.
        """
        from repro.exceptions import VerificationError
        from repro.graph import PairGraph
        from repro.verify import check_dominance_construction, random_instance

        pairs, vectors = random_instance(0)
        expected = sum(len(c) for c in PairGraph(pairs, vectors).adjacency())
        mutant = next(m for m in MUTANTS if m.name == "drop-dominance-edge")
        with mutant.activate():
            graph = PairGraph(pairs, vectors)
            index = graph.build_reachability()
            assert sum(len(c) for c in graph.adjacency()) == expected - 1
            assert int(np.unpackbits(index._desc).sum()) == expected - 1
            with pytest.raises(VerificationError, match="missing"):
                check_dominance_construction(vectors)

    def test_ragged_tile_mutant_is_caught_by_the_reachability_step(self):
        """Only the ancestor bits of the last, ragged tile go missing.

        The partial-order invariants read the adjacency lists, which stay
        intact, so they pass; ``check_reachability_index`` unpacks every
        ancestor row and fails, and so does the layering, whose in-degrees
        are popcounts of ancestor rows.  A graph of whole tiles is
        untouched.  The stored order puts dominated vertices last, so the
        lost bits are edges inside the last tile: with none there (seed 0)
        both checks pass.
        """
        from repro.exceptions import GraphError, VerificationError
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
            graph = PairGraph(*random_instance(1, 260))
            check_partial_order(graph)
            with pytest.raises(VerificationError, match="ancestor row"):
                check_reachability_index(graph)
            with pytest.raises(GraphError, match="Kahn peeling stalled"):
                check_topo_layers(graph)
            no_edges_in_last_tile = PairGraph(*random_instance(0, 260))
            check_reachability_index(no_edges_in_last_tile)
            check_topo_layers(no_edges_in_last_tile)

    def test_each_mutant_actually_changes_behavior(self):
        """Activating a mutant must make the pristine battery fail loudly."""
        for mutant in MUTANTS:
            with mutant.activate():
                with pytest.raises(Exception):  # noqa: B017 - any loud failure counts
                    run_detection_battery(seed=0)
