"""The mutation self-test: every seeded bug must be detected."""

from __future__ import annotations

import subprocess
import sys

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
        import repro.graph.grouped_graph as grouped_graph
        import repro.graph.grouping as grouping
        import repro.graph.topo as topo
        import repro.verify.relation as relation
        from repro.crowd.platform import CrowdSession
        from repro.graph.coloring import ColoringState
        import repro.graph.reachability as reachability
        from repro.graph.reachability import ReachabilityIndex
        import repro.similarity.batch as batch
        import repro.similarity.join as join
        from repro.serve.sessions import SessionRegistry
        from repro.similarity.batch import PostingJoin

        before = (
            grouped_graph.split_partition,
            batch.sparse_jaccard_join,
            join.sparse_jaccard_join,
            batch._overlap_floor,
            relation.blocked_dominance_lists,
            relation._dominance_tiles,
            relation.minimum_path_cover,
            construction.linear_extension,
            grouping._cell_keys,
            ReachabilityIndex.__dict__["build"],
            ReachabilityIndex.__dict__["row_counts"],
            reachability._threshold_counts,
            reachability._clear_equal_rows,
            topo.topological_layers,
            platform.weighted_majority_vote,
            worker._lemire_threshold,
            CrowdSession.hits,
            PostingJoin.extend,
            PostingJoin.__dict__["_probe_block"],
            ColoringState.__dict__["_refresh"],
            SessionRegistry._restore_resolver,
        )
        run_mutation_selftest(seed=0)
        after = (
            grouped_graph.split_partition,
            batch.sparse_jaccard_join,
            join.sparse_jaccard_join,
            batch._overlap_floor,
            relation.blocked_dominance_lists,
            relation._dominance_tiles,
            relation.minimum_path_cover,
            construction.linear_extension,
            grouping._cell_keys,
            ReachabilityIndex.__dict__["build"],
            ReachabilityIndex.__dict__["row_counts"],
            reachability._threshold_counts,
            reachability._clear_equal_rows,
            topo.topological_layers,
            platform.weighted_majority_vote,
            worker._lemire_threshold,
            CrowdSession.hits,
            PostingJoin.extend,
            PostingJoin.__dict__["_probe_block"],
            ColoringState.__dict__["_refresh"],
            SessionRegistry._restore_resolver,
        )
        assert before == after

    def test_lost_postings_are_caught_only_by_stream_step(self):
        """``stream-resume-forgets-postings`` loses every pair a batch
        makes with earlier batches; the stream step's multi-batch tier
        holds the stream to the one-shot candidate pairs.

        A one-shot join and a one-batch stream each extend once, and the
        serve step runs the same mutated resolver on both of its sides, so
        the battery without the stream step passes.
        """
        from repro.exceptions import VerificationError
        from repro.stream import StreamingResolver

        mutant = next(
            m for m in MUTANTS if m.name == "stream-resume-forgets-postings"
        )
        with mutant.activate():
            resolver = StreamingResolver(("a",))
            first = resolver.add_batch([("alpha beta",), ("alpha beta",)], [1, 1])
            second = resolver.add_batch([("alpha beta",)], [1])
            # The new×new pair stays; the two new×old pairs are gone.
            assert (first["new_pairs"], second["new_pairs"]) == (1, 0)
            with pytest.raises(VerificationError, match="stream-equivalence.*batches="):
                run_detection_battery(seed=0)
        with mutant.activate():
            run_detection_battery(seed=0, include_stream=False)

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

    def test_partition_offset_shift_is_caught_only_by_the_grouping_step(self):
        """A hand-off cut at shifted offsets leaves the listed groups right.

        ``split-partition-offset-shift`` moves every group size one group
        on in the partition ``build_graph`` hands to the grouped graph: a
        valid partition with the wrong groups.  ``split_grouping`` is not
        touched, so only the split-grouping step, which holds what
        ``build_graph`` builds to the reference, can catch it.
        """
        from repro.exceptions import VerificationError
        from repro.graph import build_graph, split_grouping
        from repro.verify import reference_split_grouping
        from repro.verify.mutation import _battery_fixture

        pairs, vectors = _battery_fixture(0)
        mutant = next(m for m in MUTANTS if m.name == "split-partition-offset-shift")
        with mutant.activate():
            expected = reference_split_grouping(vectors, 0.15)
            assert split_grouping(vectors, 0.15) == expected
            shifted = build_graph(pairs, vectors, 0.15).grouping
            assert sorted(map(len, shifted)) == sorted(map(len, expected))
            assert shifted != expected
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
        dominator 1, while the reference relation, which reads no order,
        still layers the three apart.  So only ``check_linear_extension``
        catches it.
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
            assert layers == [[1], [0], [2]]
            index = PairGraph(pairs, vectors).reachability
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

        ``inverted-propagation`` patches the index's vote count and
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

    def test_dropped_block_tail_is_caught_by_the_join_step(self):
        """A join that verifies only full blocks loses the tail's pairs.

        With ``join-block-tail-dropped`` a join of exactly one block of
        records still finds every pair, while one more record leaves that
        record's pairs in an unverified, partial block.  Every battery
        table is smaller than a block, so its first join oracle sees the
        loss.
        """
        from repro.exceptions import VerificationError
        from repro.similarity.batch import _JOIN_BLOCK, sparse_jaccard_join
        from repro.verify import check_join_methods
        from repro.verify.mutation import _battery_table

        same = [frozenset({"a", "b"})] * (_JOIN_BLOCK + 1)
        mutant = next(m for m in MUTANTS if m.name == "join-block-tail-dropped")
        with mutant.activate():
            full = sparse_jaccard_join(same[:_JOIN_BLOCK], 0.5)
            assert len(full) == _JOIN_BLOCK * (_JOIN_BLOCK - 1) // 2
            assert sparse_jaccard_join(same, 0.5) == full
            with pytest.raises(VerificationError, match="production join"):
                check_join_methods(_battery_table(), 0.3)
            with pytest.raises(VerificationError, match="production join"):
                run_detection_battery(seed=0)
        assert len(sparse_jaccard_join(same, 0.5)) == len(full) + _JOIN_BLOCK

    def test_vote_tie_is_caught_only_by_the_tie_round(self, monkeypatch):
        """Ties go GREEN only where a round ties a vertex's votes.

        No selector run of the battery ends a round on a tie, so with the
        tie instance's round removed the battery passes under
        ``vote-tie-green``; with it, the unasked middle of the chain turns
        GREEN where the reference keeps it RED.
        """
        from repro.exceptions import VerificationError
        from repro.graph.coloring import Color
        from repro.verify import battery, check_round_replay, vote_tie_instance

        pairs, vectors, rounds = vote_tie_instance()
        assert check_round_replay(pairs, vectors, rounds).colors.tolist() == [
            Color.RED, Color.RED, Color.GREEN,
        ]
        mutant = next(m for m in MUTANTS if m.name == "vote-tie-green")
        with mutant.activate():
            with pytest.raises(VerificationError, match="colors at vertex 1"):
                check_round_replay(pairs, vectors, rounds)
            with pytest.raises(VerificationError, match="colors at vertex 1"):
                run_detection_battery(seed=0)
        monkeypatch.setattr(battery, "vote_tie_instance", lambda: (pairs, vectors, []))
        with mutant.activate():
            run_detection_battery(seed=0)

    def test_mutant_server_errors_are_held_not_printed(self, tmp_path):
        """A request a mutant breaks is counted in its result, not printed.

        ``ServeApp.dispatch`` logs a failed request with its traceback.
        Run in a child process, whose log has no handler but Python's
        last resort (stderr): one stand-in mutant breaks every restore,
        and ``serve-cross-session-leak`` races two tenants on one
        resolver.  Both are caught and neither prints a traceback.
        """
        script = tmp_path / "mutants.py"
        script.write_text(
            "from repro.serve.sessions import SessionRegistry\n"
            "from repro.verify.mutation import MUTANTS, Mutant, _patched, _run_mutant\n"
            "def broken(self, name):\n"
            "    raise IndexError('restore broke')\n"
            "crash = Mutant('restore-crash', 'every restore raises', lambda: _patched(\n"
            "    (SessionRegistry, '_restore_resolver', broken)))\n"
            "leak = next(m for m in MUTANTS if m.name == 'serve-cross-session-leak')\n"
            "for mutant in (crash, leak):\n"
            "    result = _run_mutant(mutant, 0)\n"
            "    assert result.passed, result\n"
            "    print(result.name, result.detail)\n"
        )
        done = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        assert "Traceback" not in done.stderr, done.stderr
        assert "request failed" not in done.stderr, done.stderr
        crash_line = done.stdout.splitlines()[0]
        assert crash_line.startswith("mutant[restore-crash]")
        assert "serve log records)" in crash_line

    def test_dropped_edge_reaches_every_tile_consumer(self):
        """``drop-dominance-edge`` corrupts the reference tiles.

        The reference lists lose an edge silently (no crash), and
        ``check_dominance_construction`` still catches it.  The index is
        built from prefix bitsets, not tiles: it keeps the edge, and
        ``check_reachability_index`` reports that it and the lists disagree.
        """
        from repro.exceptions import VerificationError
        from repro.graph import PairGraph
        from repro.verify import (
            check_dominance_construction,
            check_reachability_index,
            random_instance,
            reference_relation,
        )

        pairs, vectors = random_instance(0)
        graph = PairGraph(pairs, vectors)
        expected = sum(len(c) for c in reference_relation(graph).lists)
        mutant = next(m for m in MUTANTS if m.name == "drop-dominance-edge")
        with mutant.activate():
            index = graph.reachability
            assert sum(len(c) for c in reference_relation(graph).lists) == expected - 1
            assert int(np.unpackbits(index._desc).sum()) == expected
            with pytest.raises(VerificationError, match="reference lists"):
                check_reachability_index(graph)
            with pytest.raises(VerificationError, match="missing"):
                check_dominance_construction(vectors)

    def test_ragged_block_mutant_is_caught_by_the_reachability_step(self):
        """Only the ancestor bits inside the last, ragged row block go missing.

        Acyclicity reads only the reference lists, which stay intact, so it
        passes; ``check_reachability_index`` and ``check_partial_order``
        read every ancestor row and fail, and so does the layering, whose
        in-degrees are popcounts of ancestor rows.  A graph of whole blocks
        is untouched.  The stored order puts dominated vertices last, so
        the lost bits are edges inside the last block: with none there
        (seed 0) the checks pass.
        """
        from repro.exceptions import GraphError, VerificationError
        from repro.graph import PairGraph
        from repro.verify import (
            check_acyclicity,
            check_partial_order,
            check_reachability_index,
            check_topo_layers,
            random_instance,
        )

        mutant = next(m for m in MUTANTS if m.name == "reachability-ragged-block")
        with mutant.activate():
            check_reachability_index(PairGraph(*random_instance(0, 256)))
            graph = PairGraph(*random_instance(1, 260))
            check_acyclicity(graph)
            with pytest.raises(VerificationError, match="ancestors"):
                check_partial_order(graph)
            with pytest.raises(VerificationError, match="ancestor row"):
                check_reachability_index(graph)
            with pytest.raises(GraphError, match="Kahn peeling stalled"):
                check_topo_layers(graph)
            no_edges_in_last_tile = PairGraph(*random_instance(0, 260))
            check_reachability_index(no_edges_in_last_tile)
            check_partial_order(no_edges_in_last_tile)
            check_topo_layers(no_edges_in_last_tile)

    def test_nan_threshold_is_caught_only_by_the_reachability_step(
        self, monkeypatch
    ):
        """A plain ``searchsorted`` differs from the NaN-aware count only on NaN.

        ``prefix-table-nan`` makes a NaN similarity the largest threshold,
        so vertex 0 of the NaN instance dominates both other vertices in the
        index while the reference masks (NaN compares false) give it no edge.
        No other battery instance holds a NaN, so the battery with the
        reachability check skipped on NaN graphs passes.
        """
        from repro.exceptions import VerificationError
        from repro.graph import PairGraph
        from repro.verify import check_reachability_index, invariants, nan_instance

        pairs, vectors = nan_instance()
        pristine = PairGraph(pairs, vectors).reachability
        assert [pristine.descendants(v).tolist() for v in range(3)] == [[], [2], []]
        mutant = next(m for m in MUTANTS if m.name == "prefix-table-nan")
        with mutant.activate():
            index = PairGraph(pairs, vectors).reachability
            assert [index.descendants(v).tolist() for v in range(3)] == [[1, 2], [2], []]
            with pytest.raises(VerificationError, match="descendant row 0"):
                check_reachability_index(PairGraph(pairs, vectors))
            with pytest.raises(VerificationError, match="descendant row 0"):
                run_detection_battery(seed=0)
        real = invariants.check_reachability_index

        def skip_nan(graph):
            if not np.isnan(graph._dominance_operands()[0]).any():
                real(graph)

        monkeypatch.setattr(invariants, "check_reachability_index", skip_nan)
        with mutant.activate():
            run_detection_battery(seed=0)

    def test_each_mutant_actually_changes_behavior(self):
        """Activating a mutant must make the pristine battery fail loudly."""
        for mutant in MUTANTS:
            with mutant.activate():
                with pytest.raises(Exception):  # noqa: B017 - any loud failure counts
                    run_detection_battery(seed=0)
