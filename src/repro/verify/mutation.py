"""Mutation self-test: seeded bugs the verification suite must catch.

A verification suite that has never failed proves nothing — maybe the code
is correct, maybe the checks are vacuous.  This module settles the question
by *injecting* known bugs (mutants) into the production modules, running a
compact detection battery under each one, and demanding that at least one
check screams.  Every mutant models a realistic regression:

======================  ====================================================
mutant                  seeded bug
======================  ====================================================
``drop-dominance-edge`` the dominance tile generator silently loses one
                        edge per pass (lists, edge set and packed index)
``reachability-ragged-tile``  the one-pass index build skips the ancestor
                        slab of the last, ragged tile
``non-strict-dominance``  ``>=`` everywhere accepted without a strict ``>``
``inverted-propagation``  GREEN votes descendants, RED votes ancestors
``topo-layer-merge``    all Kahn levels collapse into a single layer
``overlapping-paths``   the "minimum" path cover repeats a vertex
``billing-floor``       HIT count floors instead of ceiling
``weight-blind-votes``  weighted aggregation ignores worker accuracies
``shard-merge-drop``    the shard merge drops every slice's votes but one
``stale-matching``      deleting a matched vertex leaves its partner claimed
``obs-perturbs-selection``  instrumentation drops a vertex from each round
``stream-stale-index``  a streamed batch lands in the token index as
                        empty rows (silent candidate loss)
``serve-cross-session-leak``  the session registry hands back another live
                        tenant's resolver instead of restoring the evicted
                        session's snapshot
``plan-changes-results``  the cost planner's apply step also flips a
                        semantic knob (``epsilon``), so a planned run
                        returns different answers
``join-range-no-replay``  the candidate join's range form skips the
                        posting replay of records before ``lo``
======================  ====================================================

Patching is done by rebinding module/class attributes inside a context
manager that always restores the originals; lazily-imported helpers
(``topological_layers``, ``minimum_path_cover``) are patched at their
defining module *and* at every module-level import site, so both the
production pipeline and the oracles see the mutated code.  The dominance
tile generator has no import sites: every consumer looks it up through
:mod:`repro.graph.construction` at call time.

:func:`run_mutation_selftest` returns a
:class:`~repro.verify.report.VerificationReport` with one result per
mutant: *passed* means the battery detected the bug (any check raised), a
failure means a seeded bug slipped through the entire suite undetected.
"""

from __future__ import annotations

import inspect
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..core.config import PowerConfig
from ..crowd.platform import PerfectCrowd, SimulatedCrowd
from ..crowd.worker import WorkerPool
from ..exceptions import VerificationError
from ..graph.dag import PairGraph
from . import invariants, oracles
from .report import VerificationReport

PatchTarget = tuple[object, str, object]


@contextmanager
def _patched(*targets: PatchTarget) -> Iterator[None]:
    """Rebind ``(owner, attribute, replacement)`` triples, restoring on exit.

    The originals are read without the descriptor protocol, so a
    classmethod or property is restored as itself.
    """
    originals = [
        (owner, name, inspect.getattr_static(owner, name)) for owner, name, _ in targets
    ]
    try:
        for owner, name, replacement in targets:
            setattr(owner, name, replacement)
        yield
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


@dataclass(frozen=True)
class Mutant:
    """One seeded bug: a name, a story, and a patch context manager."""

    name: str
    description: str
    activate: Callable[[], object]  # returns a context manager


# --------------------------------------------------------------------------- #
# The mutant catalog
# --------------------------------------------------------------------------- #


def _mutant_drop_dominance_edge():
    """The dominance tile generator loses the first tile's last edge.

    Patched where production reads it: the adjacency lists, the edge set
    and the packed reachability index all draw their tiles through
    ``construction._dominance_tiles`` at call time, so every consumer
    silently loses the same edge.
    """
    from ..graph import construction

    original = construction._dominance_tiles

    def mutated(*args, **kwargs):
        dropped = False
        for start, tile in original(*args, **kwargs):
            if not dropped and tile.any():
                rows, cols = np.nonzero(tile)
                tile[rows[-1], cols[-1]] = False  # bug: one edge vanishes
                dropped = True
            yield start, tile

    return _patched((construction, "_dominance_tiles", mutated))


def _mutant_reachability_ragged_tile():
    """The one-pass index build skips the last, ragged tile's ancestor slab.

    Models an off-by-one in :meth:`ReachabilityIndex.build`: ancestor bits
    are packed for full-height tiles only, so no vertex lists any of the
    last ``n mod B`` rows among its ancestors.  Descendant rows and the
    adjacency lists stay correct, so the structural invariants (which read
    the lists) cannot see it; ``check_reachability_index``, which unpacks
    every ancestor row, can.
    """
    from ..graph import construction
    from ..graph.reachability import ReachabilityIndex

    original = ReachabilityIndex.build.__func__

    def mutated(cls, dominant, dominated, lists=None):
        index = original(cls, dominant, dominated, lists)
        ragged = index.num_vertices % construction.DEFAULT_BLOCK_SIZE
        if ragged:  # bug: the ragged tile's ancestor bytes stay unwritten
            index._anc[:, (index.num_vertices - ragged) >> 3 :] = 0
        return index

    return _patched((ReachabilityIndex, "build", classmethod(mutated)))


def _mutant_non_strict_dominance():
    """Dominance accepts ``>=`` everywhere without requiring a strict ``>``."""

    def mutated_descendants(self, vertex):
        self._check_vertex(vertex)
        return np.all(self.vectors <= self.vectors[vertex], axis=1)

    def mutated_ancestors(self, vertex):
        self._check_vertex(vertex)
        return np.all(self.vectors >= self.vectors[vertex], axis=1)

    return _patched(
        (PairGraph, "descendant_mask", mutated_descendants),
        (PairGraph, "ancestor_mask", mutated_ancestors),
    )


def _mutant_inverted_propagation():
    """A GREEN answer votes descendants and a RED answer votes ancestors."""
    from ..graph.coloring import Color, ColoringState

    def mutated(self, vertex, answer, propagate=True):
        self.graph._check_vertex(vertex)
        self.asked_order.append(vertex)
        self.colors[vertex] = Color.GREEN if answer else Color.RED
        self._pinned[vertex] = True
        if not propagate:
            return
        if answer:
            targets = self.graph.descendant_mask(vertex)  # bug: wrong direction
            self._green_votes[targets] += 1
        else:
            targets = self.graph.ancestor_mask(vertex)  # bug: wrong direction
            self._red_votes[targets] += 1
        self._refresh(targets)

    return _patched((ColoringState, "apply_answer", mutated))


def _mutant_topo_layer_merge():
    """Every Kahn level collapses into one layer."""
    from ..graph import topo
    from ..selection import topo_sort

    original = topo.topological_layers

    def mutated(graph, active=None):
        layers = original(graph, active)
        if len(layers) <= 1:
            return layers
        return [np.concatenate(layers)]

    return _patched(
        (topo, "topological_layers", mutated),
        (topo_sort, "topological_layers", mutated),
    )


def _mutant_overlapping_paths():
    """The "minimum" path cover repeats a vertex across two paths."""
    from ..graph import matching
    from ..selection import single_path

    original = matching.minimum_path_cover

    def mutated(adjacency):
        paths = original(adjacency)
        if len(paths) >= 2:
            paths[1] = [paths[0][0]] + paths[1]
        return paths

    # single_path hosts the shared cover_paths fallback, so patching it
    # covers both path selectors' scratch paths.
    return _patched(
        (matching, "minimum_path_cover", mutated),
        (single_path, "minimum_path_cover", mutated),
    )


def _mutant_billing_floor():
    """HIT billing floors the question count instead of taking the ceiling."""
    from ..crowd.platform import CrowdSession

    def mutated_hits(self):
        if not self._asked:
            return 0
        return (len(self._asked) // self.pairs_per_hit) * self.crowd.assignments

    return _patched((CrowdSession, "hits", property(mutated_hits)))


def _mutant_weight_blind_votes():
    """Weighted aggregation quietly falls back to an unweighted majority."""
    from ..crowd import platform
    from ..crowd.aggregate import majority_vote

    def mutated(votes, weights):
        return majority_vote(votes)

    return _patched((platform, "weighted_majority_vote", mutated))


def _mutant_shard_merge_drop():
    """The shard vote merge keeps only the first slice's contribution.

    Models the classic parallel-reduction bug: a merge that is only
    correct for a single worker.  Patched at the defining module *and* at
    the resolver's import site, exactly like the other lazily-bound
    helpers, so the sharded lockstep loop actually runs the broken merge.
    """
    from ..shard import merge as shard_merge
    from ..shard import resolver as shard_resolver

    original = shard_merge.merge_vote_deltas

    def mutated(slices, num_vertices):
        slices = list(slices)
        return original(slices[:1], num_vertices)  # bug: drops slices 2..n

    return _patched(
        (shard_merge, "merge_vote_deltas", mutated),
        (shard_resolver, "merge_vote_deltas", mutated),
    )


def _mutant_stale_matching():
    """Deleting a matched left vertex leaves its right claimed by the ghost.

    Models the classic incremental-index bug: a deletion handler that
    updates one side of a bidirectional link.  The warm-started greedy
    matching then under-matches (rights stay claimed by dead vertices), the
    path cover drifts from the scratch reference, and the selection
    transcript diverges — which ``check_selection_incremental`` must notice.
    """
    from ..graph.matching import IncrementalPathCover

    def mutated(self, deleted):
        restart = self._n
        freed: list[int] = []
        gl, gr = self._greedy_left, self._greedy_right
        for w in deleted:
            w = int(w)
            r = int(gl[w])
            if r != -1:
                gl[w] = -1  # bug: gr[r] keeps pointing at the deleted vertex
            u = int(gr[w])
            if u != -1:
                gr[w] = -1
                gl[u] = -1
                if self._active[u] and u < restart:
                    restart = u
        return restart, freed

    return _patched((IncrementalPathCover, "_release_deleted", mutated))


def _mutant_stream_stale_index():
    """A streamed batch's records never really enter the token index.

    Models the classic incremental-index regression: the maintenance path
    runs (no crash, shapes stay consistent) but the first extension's rows
    are written as empty token sets, so those records post no candidates —
    silent pair loss, invisible to every one-shot check because the
    one-shot pipeline builds its :class:`TokenIndex` from scratch.  Only
    the multi-batch tier of ``check_stream_equivalence``, which compares
    the stream's decided-pair universe against the one-shot candidate
    pairs, can notice the hole.
    """
    from ..similarity.batch import TokenIndex

    original = TokenIndex.extend

    def mutated(self, texts):
        first = not getattr(self, "_extend_mutated", False)
        self._extend_mutated = True
        rows_before = self.bits.shape[0]
        result = original(self, texts)
        if first and self.bits.shape[0] > rows_before:
            # bug: the batch "entered" the index as token-empty rows
            self.bits[rows_before:] = 0
            self.sizes[rows_before:] = 0
        return result

    return _patched((TokenIndex, "extend", mutated))


def _mutant_serve_cross_session_leak():
    """The session registry restores the wrong resolver after eviction.

    Models the classic cache-keying bug in a multi-tenant server: the
    restore path grabs whatever resolver is still warm instead of decoding
    the evicted session's own snapshot, silently cross-wiring tenants.  No
    request fails — every op still returns a well-formed response — so the
    leak is invisible to protocol-level checks and to any single-tenant
    run.  Only the evict/restore alternation tier of
    ``check_serve_equivalence``, which gives concurrent tenants *different*
    states and compares each final ``state_sha`` against a direct
    :class:`StreamingResolver` run, can notice that one tenant's batches
    landed in another tenant's session.
    """
    from ..serve.sessions import SessionRegistry

    original = SessionRegistry._restore_resolver

    def mutated(self, name):
        for other_name, live in self._live.items():
            if other_name != name:
                return live.resolver  # bug: another tenant's live resolver
        return original(self, name)

    return _patched((SessionRegistry, "_restore_resolver", mutated))


def _mutant_plan_changes_results():
    """The cost planner silently flips a semantic knob.

    Models the scariest planner regression: ``apply_plan`` — contractually
    limited to pure-performance knobs — also rewrites a *semantic* one
    (here ``epsilon``, disabling the §4.2 grouping), so a planned run
    returns different answers than the static defaults.  No performance
    check can see it (the planned run is perfectly healthy on its own) and
    every other battery step runs with ``plan="off"``; only
    ``check_plan_transparency``, which diffs a planned resolve against the
    static-defaults run bit for bit, can notice — proving that check has
    teeth.  Patched at the defining module; the resolver and the check
    both resolve ``apply_plan`` through the module attribute at call time.
    """
    import dataclasses

    from ..plan import planner as plan_planner

    original = plan_planner.apply_plan

    def mutated(config, plan):
        planned = original(config, plan)
        # bug: the "performance-only" rewrite also disables grouping
        return dataclasses.replace(planned, epsilon=None)

    return _patched((plan_planner, "apply_plan", mutated))


def _mutant_join_range_no_replay():
    """The range form of the candidate join forgets the records before *lo*.

    Models the classic range-partitioning bug: a probe range that builds
    its inverted index from its own records only, so every pair whose
    lower record falls in an earlier range vanishes.  The whole-table join
    (``lo == 0``) is untouched, so only a check that tiles the range form
    can notice — the tiling tier of ``check_join_methods`` (and the
    sharded-join differential).  Patched at the defining module and at
    :mod:`repro.similarity.join`'s import site.
    """
    from ..similarity import batch, join

    original = batch.sparse_jaccard_join

    def mutated(token_sets, threshold, lo=0, hi=None):
        hi = len(token_sets) if hi is None else hi
        # bug: records before lo never enter the posting lists
        local = original(token_sets[lo:hi], threshold)
        return {(a + lo, b + lo) for a, b in local}

    return _patched(
        (batch, "sparse_jaccard_join", mutated),
        (join, "sparse_jaccard_join", mutated),
    )


def _mutant_obs_perturbs_selection():
    """Observability stops being read-only: it drops a vertex per round.

    Models the instrumentation bug the transparency contract exists for — a
    hook that *steers* the run instead of observing it.  The perturbation
    fires only when observability is enabled, so every obs-off check in the
    battery sails through; only ``check_observability_transparent`` (the one
    step that runs the pipeline under an active handle and compares it
    against the plain run) can catch it — proving that check has teeth.
    Both call sites (``selection.base``, ``shard.resolver``) import the
    :mod:`repro.obs.instrument` *module*, so patching the defining module's
    attribute reaches them all.
    """
    from ..obs import instrument as obs_instrument

    original = obs_instrument.observe_round

    def mutated(obs, selector_name, round_index, vertices, cover_seconds):
        vertices = original(obs, selector_name, round_index, vertices, cover_seconds)
        if obs.enabled and len(vertices) > 1:
            return vertices[:-1]  # bug: instrumentation steers the run
        return vertices

    return _patched((obs_instrument, "observe_round", mutated))


MUTANTS: tuple[Mutant, ...] = (
    Mutant(
        "drop-dominance-edge",
        "the dominance tile generator silently loses one edge",
        _mutant_drop_dominance_edge,
    ),
    Mutant(
        "reachability-ragged-tile",
        "the index build skips the ancestor slab of the last, ragged tile",
        _mutant_reachability_ragged_tile,
    ),
    Mutant(
        "non-strict-dominance",
        "dominance accepts >= everywhere without a strict >",
        _mutant_non_strict_dominance,
    ),
    Mutant(
        "inverted-propagation",
        "GREEN votes descendants and RED votes ancestors",
        _mutant_inverted_propagation,
    ),
    Mutant(
        "topo-layer-merge",
        "all Kahn levels collapse into a single layer",
        _mutant_topo_layer_merge,
    ),
    Mutant(
        "overlapping-paths",
        "the minimum path cover repeats a vertex",
        _mutant_overlapping_paths,
    ),
    Mutant(
        "billing-floor",
        "HIT billing floors instead of ceiling",
        _mutant_billing_floor,
    ),
    Mutant(
        "weight-blind-votes",
        "weighted vote aggregation ignores worker accuracies",
        _mutant_weight_blind_votes,
    ),
    Mutant(
        "shard-merge-drop",
        "the shard vote merge drops every slice's contribution but the first",
        _mutant_shard_merge_drop,
    ),
    Mutant(
        "stale-matching",
        "deleting a matched vertex leaves its matched partner claimed",
        _mutant_stale_matching,
    ),
    Mutant(
        "obs-perturbs-selection",
        "enabled instrumentation drops a vertex from every selection round",
        _mutant_obs_perturbs_selection,
    ),
    Mutant(
        "stream-stale-index",
        "a streamed batch's records enter the token index as empty rows",
        _mutant_stream_stale_index,
    ),
    Mutant(
        "serve-cross-session-leak",
        "the session registry restores another live tenant's resolver",
        _mutant_serve_cross_session_leak,
    ),
    Mutant(
        "plan-changes-results",
        "the cost planner's apply step also flips a semantic knob (epsilon)",
        _mutant_plan_changes_results,
    ),
    Mutant(
        "join-range-no-replay",
        "the candidate join's range form skips the posting replay before lo",
        _mutant_join_range_no_replay,
    ),
)


# --------------------------------------------------------------------------- #
# Detection battery
# --------------------------------------------------------------------------- #


@lru_cache(maxsize=2)
def _battery_table(scale: float = 0.05):
    """A small cached restaurant sample for the shard-equivalence step.

    Cached because the detection battery runs once per mutant plus the
    baseline/restore sweeps; the table itself is immutable.
    """
    from ..data.generators import restaurant
    from .battery import subsample_table

    return subsample_table(restaurant(), scale)


def _battery_fixture(seed: int):
    """Deterministic vectors/pairs shaped to exercise every mutant.

    ``round(1)`` quantizes similarities so the partial order has real
    duplicate vectors, long chains, and wide antichains — the regimes where
    the seeded bugs actually bite.
    """
    rng = np.random.default_rng(seed)
    vectors = rng.random((30, 4)).round(1)
    pairs = [(2 * k, 2 * k + 1) for k in range(30)]
    return pairs, vectors


def run_detection_battery(
    seed: int = 0,
    include_stream: bool = True,
    include_serve: bool = True,
    include_plan: bool = True,
) -> None:
    """The compact all-subsystem sweep each mutant must fail.

    Raises :class:`~repro.exceptions.VerificationError` (or crashes) on the
    first check that notices anything wrong; completes silently on healthy
    code.

    Args:
        seed: base seed threaded through every stochastic component.
        include_stream: run the streaming-equivalence step.  On by default;
            the flag exists so tests can prove ``stream-stale-index`` is
            detected by *only* that step (the battery minus the stream
            check must sail through under the mutant).
        include_serve: run the serve-equivalence step, with the analogous
            exclusivity role for ``serve-cross-session-leak``.
        include_plan: run the plan-transparency step, with the analogous
            exclusivity role for ``plan-changes-results`` (no other step
            runs a planned resolve).
    """
    pairs, vectors = _battery_fixture(seed)

    # Construction + structural invariants.
    oracles.check_dominance_construction(vectors)
    graph = PairGraph(pairs, vectors)
    invariants.check_partial_order(graph)
    invariants.check_acyclicity(graph)
    invariants.check_topo_layers(graph)
    invariants.check_path_cover(graph)

    # The packed reachability index: built over the lists cached above, and
    # in one pass on a fresh graph whose last tile is ragged (256 + 4 rows).
    from .battery import random_instance

    invariants.check_reachability_index(graph)
    invariants.check_reachability_index(PairGraph(*random_instance(seed, 260)))

    # Selector runs: production-vs-naive and the monotone exactness oracle.
    oracles.check_selector_differential("power", pairs, vectors, seed=seed)
    oracles.check_selector_differential("single-path", pairs, vectors, seed=seed)
    oracles.check_selector_monotone_oracle("power", pairs, vectors, seed=seed)

    # Incremental selection engine vs the per-round scratch reference.
    oracles.check_selection_incremental("single-path", pairs, vectors, seed=seed)
    oracles.check_selection_incremental("multi-path", pairs, vectors, seed=seed)

    # Billing: 13 distinct questions at 5 pairs/HIT makes floor != ceil.
    truth = {pair: True for pair in pairs}
    session = PerfectCrowd(truth).session(pairs_per_hit=5)
    session.ask_batch(pairs[:13])
    invariants.check_session_coherence(session)

    # Candidate join vs the naive and prefix oracles, whole and tiled.
    oracles.check_join_methods(
        _battery_table(), PowerConfig().pruning_threshold, seed=seed
    )

    # Crowd aggregation: heterogeneous accuracies, weighted majority.
    mixed_truth = {pair: bool(index % 2) for index, pair in enumerate(pairs)}
    crowd = SimulatedCrowd(
        mixed_truth,
        pool=WorkerPool(accuracy_range="80", seed=seed),
        assignments=5,
        aggregation="weighted",
    )
    oracles.check_crowd_aggregation(crowd, pairs[:10])

    # Sharded lockstep vs serial resolver: inline (workers=0), >= 2 slices,
    # so a merge that drops or double-counts a shard's contribution has to
    # change the transcript, the labels, or the bill.
    oracles.check_shard_equivalence(
        _battery_table(), seed=seed, shard_counts=(2, 3)
    )

    # Streamed vs one-shot resolution (single batch, multi batch under the
    # monotone exactness oracle, kill-resume): the only step that exercises
    # TokenIndex.extend, hence the only one able to catch the
    # stream-stale-index mutant.
    if include_stream:
        oracles.check_stream_equivalence(
            _battery_table(), seed=seed, batch_counts=(3,)
        )

    # Server-hosted sessions vs direct streams (concurrent tenants over
    # real sockets, then a forced evict/restore alternation): the only
    # step that exercises the session registry, hence the only one able
    # to catch the serve-cross-session-leak mutant.
    if include_serve:
        oracles.check_serve_equivalence(
            _battery_table(), seed=seed, tenants=2, batches=2
        )

    # Observability transparency: the only step that runs with an active
    # obs handle, hence the only one able to catch instrumentation that
    # perturbs the run (the obs-perturbs-selection mutant).
    oracles.check_observability_transparent("power", pairs, vectors, seed=seed)

    # Plan transparency: the only step that runs a planned resolve
    # (everything else keeps the default plan="off"), hence the only one
    # able to catch a planner that flips a semantic knob (the
    # plan-changes-results mutant).
    if include_plan:
        oracles.check_plan_transparency(_battery_table(), seed=seed)


def run_mutation_selftest(seed: int = 0) -> VerificationReport:
    """Activate each mutant, demand the battery notices, restore, repeat.

    Returns:
        A report with one entry per mutant.  An entry *passes* when the
        battery raised under the mutant (bug detected) and the pristine
        battery still passes afterwards (patch fully restored).
    """
    from .report import CheckResult

    report = VerificationReport()
    # The battery must be green on unmutated code or detections mean nothing.
    try:
        run_detection_battery(seed)
    except Exception as error:  # noqa: BLE001 - any failure poisons the test
        report.add(
            CheckResult(
                name="mutation-selftest-baseline",
                passed=False,
                detail=f"battery fails on pristine code: {error}",
            )
        )
        return report

    for mutant in MUTANTS:
        started = time.perf_counter()
        detected_by: str | None = None
        with mutant.activate():
            try:
                run_detection_battery(seed)
            except VerificationError as error:
                detected_by = f"VerificationError: {error}"
            except Exception as error:  # noqa: BLE001 - loud crash also counts
                detected_by = f"{type(error).__name__}: {error}"
        elapsed = time.perf_counter() - started
        if detected_by is None:
            report.add(
                CheckResult(
                    name=f"mutant[{mutant.name}]",
                    passed=False,
                    detail=(
                        f"seeded bug went undetected: {mutant.description}"
                    ),
                    seconds=elapsed,
                )
            )
        else:
            first_line = detected_by.splitlines()[0][:160]
            report.add(
                CheckResult(
                    name=f"mutant[{mutant.name}]",
                    passed=True,
                    detail=first_line,
                    seconds=elapsed,
                )
            )
    # Restoration check: the pristine battery must still pass.
    started = time.perf_counter()
    try:
        run_detection_battery(seed)
    except Exception as error:  # noqa: BLE001
        report.add(
            CheckResult(
                name="mutation-selftest-restore",
                passed=False,
                detail=f"battery fails after restore: {error}",
                seconds=time.perf_counter() - started,
            )
        )
    else:
        report.add(
            CheckResult(
                name="mutation-selftest-restore",
                passed=True,
                seconds=time.perf_counter() - started,
            )
        )
    return report


def detected_mutants(report: VerificationReport) -> list[str]:
    """Names of mutants the battery caught (convenience for tests/CLI)."""
    return [
        result.name.removeprefix("mutant[").removesuffix("]")
        for result in report.results
        if result.name.startswith("mutant[") and result.passed
    ]


__all__ = [
    "MUTANTS",
    "Mutant",
    "run_detection_battery",
    "run_mutation_selftest",
    "detected_mutants",
]
