"""Mutation self-test: seeded bugs the verification suite must catch.

A verification suite that has never failed proves nothing — maybe the code
is correct, maybe the checks are vacuous.  This module settles the question
by *injecting* known bugs (mutants) into the production modules, running a
compact detection battery under each one, and demanding that at least one
check screams.  Every mutant models a realistic regression:

======================  ====================================================
mutant                  seeded bug
======================  ====================================================
``drop-dominance-edge`` the reference dominance tiles silently lose one
                        edge per pass (the packed index keeps it)
``reachability-ragged-block``  the index build's ancestor rows lose their
                        bits inside the last, ragged row block
``prefix-table-nan``    the index build counts thresholds with a plain
                        ``searchsorted``, so NaN sorts as the largest value
``sum-order-extension``  the linear extension orders vertices by float
                        row sums, which can tie under dominance
``split-midpoint-tie``  Split grouping puts a member lying on a node's
                        midpoint in the upper half (``>=`` for ``>``)
``split-partition-offset-shift``  the grouped graph cuts Split's flat
                        partition with every group size moved one group on
``non-strict-dominance``  the index build skips its strictness step, so
                        ``>=`` everywhere is accepted without a strict ``>``
``inverted-propagation``  the index's vote counts swap sides: GREEN votes
                        descendants, RED votes ancestors
``topo-layer-merge``    all Kahn levels collapse into a single layer
``overlapping-paths``   the reference minimum path cover repeats a vertex
``billing-floor``       HIT count floors instead of ceiling
``weight-blind-votes``  weighted aggregation ignores worker accuracies
``crowd-draw-no-rejection``  the batched draw kernel's bounded draw never
                        rejects (Lemire's bias correction dropped)
``stale-matching``      deleting a matched vertex leaves its partner claimed
``obs-perturbs-selection``  instrumentation drops a vertex from each round
``stream-resume-forgets-postings``  a resumed join extend probes only
                        its own batch's postings (new×old pairs are lost)
``serve-cross-session-leak``  the session registry hands back another live
                        tenant's resolver instead of restoring the evicted
                        session's snapshot
``join-overlap-ceil``   the candidate join's overlap floor comes from
                        ``ceil(threshold * size)``, one too high on a
                        float edge
``join-block-tail-dropped``  the candidate join never verifies its last,
                        partial block of records
``vote-tie-green``      an inferred vertex whose GREEN and RED votes tie is
                        colored GREEN instead of RED
======================  ====================================================

Patching is done by rebinding module/class attributes inside a context
manager that always restores the originals; ``topological_layers`` is
patched at its defining module *and* at its module-level import site, so
both the production pipeline and the oracles see the mutated code.  The
reference dominance tiles and minimum path cover, the linear extension,
the index build's threshold count and strictness step, the Split cell-bit
helper, the crowd kernel's Lemire threshold and the join's overlap floor
have no import sites: every consumer looks them up through their defining
module at call time.  ``split-partition-offset-shift``
is the one mutant patched at an import site alone
(``grouped_graph.split_partition``): it breaks the hand-off to the grouped
graph and leaves ``split_grouping`` correct.

A mutant can make a served request fail, which the server logs with its
traceback.  While a mutant is active the ``repro.serve.server`` log is
held, not printed, and its record count is part of the mutant's result.

:func:`run_mutation_selftest` returns a
:class:`~repro.verify.report.VerificationReport` with one result per
mutant: *passed* means the battery detected the bug (any check raised), a
failure means a seeded bug slipped through the entire suite undetected.
"""

from __future__ import annotations

import inspect
import logging
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
from .report import CheckResult, VerificationReport

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
    """The reference dominance tiles lose the first tile's last edge.

    The reference lists draw their tiles through
    ``relation._dominance_tiles`` at call time, so they silently lose an
    edge.  The packed reachability index is built from prefix bitsets, not
    tiles, so it keeps the edge, and ``check_dominance_construction`` and
    ``check_reachability_index`` report that the two disagree.
    """
    from . import relation

    original = relation._dominance_tiles

    def mutated(*args, **kwargs):
        dropped = False
        for start, tile in original(*args, **kwargs):
            if not dropped and tile.any():
                rows, cols = np.nonzero(tile)
                tile[rows[-1], cols[-1]] = False  # bug: one edge vanishes
                dropped = True
            yield start, tile

    return _patched((relation, "_dominance_tiles", mutated))


def _mutant_reachability_ragged_block():
    """The index build's ancestor rows lose their bits inside the last block.

    Models an off-by-one in :meth:`ReachabilityIndex.build`'s ancestor
    pass: the last, ragged block of ``n mod B`` rows
    (``B = construction.DEFAULT_BLOCK_SIZE``) is ANDed only up to its own
    first byte, so no vertex lists any of the last ``n mod B`` stored rows
    among its ancestors (only rows of that block could: the ancestor matrix
    is lower triangular).  Descendant rows stay correct;
    ``check_partial_order`` and ``check_reachability_index``, which read
    every ancestor row, see it, and so can the layering check when one of
    those rows has an active descendant (Power's in-degrees are popcounts
    of ancestor rows).
    """
    from ..graph import construction
    from ..graph.reachability import ReachabilityIndex

    original = ReachabilityIndex.build.__func__

    def mutated(cls, dominant, dominated):
        index = original(cls, dominant, dominated)
        ragged = index.num_vertices % construction.DEFAULT_BLOCK_SIZE
        if ragged:  # bug: the ragged block's own ancestor bytes stay unwritten
            index._anc[:, (index.num_vertices - ragged) >> 3 :] = 0
        return index

    return _patched((ReachabilityIndex, "build", classmethod(mutated)))


def _mutant_prefix_table_nan():
    """The index build counts thresholds with a plain ``searchsorted``.

    NaN sorts as the largest value, so a vertex with a NaN similarity picks
    the widest prefix-table row and dominates every vertex its other
    attributes cover, where the reference tiles and masks (NaN compares
    false) give it no edge.  No other battery instance holds a
    NaN, so only ``check_reachability_index`` on the NaN instance can
    notice.  Patched at ``reachability._threshold_counts``, which the build
    looks up at call time.
    """
    from ..graph import reachability

    def mutated(ordered, values):
        return np.searchsorted(ordered, values, side="right")  # bug: NaN is largest

    return _patched((reachability, "_threshold_counts", mutated))


def _mutant_sum_order_extension():
    """The linear extension falls back to descending float row sums.

    Models the order the layering used before it was exact: ``u > v``
    implies ``sum(u) >= sum(v)`` in floating point, not ``>``, so where two
    sums round to the same value a stable sort can put the dominated vertex
    first.  In the index that edge then lands below the stored diagonal
    (beyond the first row block, the build never writes it).  The
    battery's other instances have no such tie, so only
    ``check_linear_extension`` on the float-sum tie instance can notice.
    Patched at ``construction.linear_extension``, which the index build
    looks up at call time.
    """
    from ..graph import construction

    def mutated(dominant):
        sums = np.asarray(dominant, dtype=np.float64).sum(axis=1)
        return np.argsort(-sums, kind="stable")  # bug: sums can tie

    return _patched((construction, "linear_extension", mutated))


def _mutant_split_midpoint_tie():
    """Split sends a member lying exactly on a node's midpoint upward.

    Models a ``>`` that became ``>=`` in Algorithm 2's cell bits.  The
    groups stay valid (every span still at most epsilon), just different,
    so every step that builds its grouped graphs from the same production
    grouping on both sides sails through; only ``check_split_grouping``,
    which diffs production against the per-node reference, can notice.
    Patched at ``grouping._cell_keys``, which ``split_partition`` looks up
    at call time, so both ``split_grouping`` and the flat partition
    ``build_graph`` hands to the grouped graph run the bug.
    """
    from ..graph import grouping

    def mutated(values, cuts):
        bits = values >= cuts  # bug: ties go to the upper half
        return bits @ (1 << np.arange(values.shape[1], dtype=np.int64))

    return _patched((grouping, "_cell_keys", mutated))


def _mutant_split_partition_offset_shift():
    """The grouped graph cuts Split's flat partition at shifted offsets.

    Models an off-by-one group in the hand-off of a flat partition: every
    group size moves one group on (the last wraps to the first), so the
    members, their order and the multiset of sizes are unchanged and the
    grouped graph's validation (no empty group, every base vertex in
    exactly one) passes, but groups mix members of neighbouring leaves.
    ``split_grouping`` still lists the right groups; only what
    ``build_graph`` builds is wrong, so only ``check_split_grouping``'s
    comparison of that graph's bounds and ``group_of_pair_vertex`` with
    the reference can notice.  Patched at ``grouped_graph.split_partition``,
    which ``build_graph`` looks up at call time.
    """
    from ..graph import grouped_graph
    from ..graph.grouping import Partition

    original = grouped_graph.split_partition

    def mutated(vectors, epsilon):
        members, sizes = original(vectors, epsilon)
        return Partition(members, np.roll(sizes, 1))  # bug: offsets shifted a group

    return _patched((grouped_graph, "split_partition", mutated))


def _mutant_non_strict_dominance():
    """The index build skips its strictness step.

    Models a dominance test that accepts ``>=`` on every attribute without
    asking for a strict ``>``: equal rows (and each vertex with itself)
    stay related.  Patched at ``reachability._clear_equal_rows``, which the
    build looks up at call time; ``check_reachability_index`` sees the
    bits on the stored diagonal.
    """
    from ..graph import reachability

    def mutated(desc, anc, dominant, dominated):
        return None  # bug: ">=" everywhere is kept as strict dominance

    return _patched((reachability, "_clear_equal_rows", mutated))


def _mutant_inverted_propagation():
    """A GREEN answer votes descendants and a RED answer votes ancestors.

    Patched at ``ReachabilityIndex.row_counts``, which the round update
    (``ColoringState.apply_round``) reads its votes from.
    """
    from ..graph.reachability import ReachabilityIndex

    original = ReachabilityIndex.row_counts

    def mutated(self, vertices, ancestors):
        return original(self, vertices, not ancestors)  # bug: wrong direction

    return _patched((ReachabilityIndex, "row_counts", mutated))


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
    """The reference minimum path cover repeats a vertex across two paths.

    Patched at ``relation.minimum_path_cover``, which the reference path
    cover and ``check_path_cover`` look up at call time.
    """
    from . import relation

    original = relation.minimum_path_cover

    def mutated(adjacency):
        paths = original(adjacency)
        if len(paths) >= 2:
            paths[1] = [paths[0][0]] + paths[1]
        return paths

    return _patched((relation, "minimum_path_cover", mutated))


def _mutant_billing_floor():
    """HIT billing floors the question count instead of taking the ceiling."""
    from ..crowd.platform import CrowdSession

    def mutated_hits(self):
        if not self._asked:
            return 0
        return (len(self._asked) // self.pairs_per_hit) * self.crowd.assignments

    return _patched((CrowdSession, "hits", property(mutated_hits)))


def _mutant_weight_blind_votes():
    """Weighted aggregation quietly falls back to an unweighted majority.

    Patched at the platform module's ``weighted_majority_vote``, which
    ``SimulatedCrowd._aggregate`` looks up for every pair of every round.
    """
    from ..crowd import platform
    from ..crowd.aggregate import majority_vote

    def mutated(votes, weights):
        return majority_vote(votes)

    return _patched((platform, "weighted_majority_vote", mutated))


def _mutant_crowd_draw_no_rejection():
    """The batched kernel's bounded draw never rejects.

    Models dropping Lemire's rejection step: the draw stays in range but
    is slightly biased and no longer numpy's.  With pools of at most 50
    workers a rejection fires about once in 10**8 draws, so no resolve
    can see it; only ``check_crowd_draws``, which draws near 2**31 where
    about half the draws reject, can.  Patched at
    ``worker._lemire_threshold``, which the kernel looks up at call time.
    """
    from ..crowd import worker

    return _patched((worker, "_lemire_threshold", lambda bound: 0))


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


def _mutant_stream_resume_forgets_postings():
    """A resumed join extend probes only the postings of its own batch.

    Models the classic slip in a resumable index: state that must outlive
    a call is effectively rebuilt per call, so each batch is joined with
    itself alone and every new×old pair of a stream's later batches is
    lost.  A one-shot join is one extend, and so is a one-batch stream, so
    only the multi-batch tier of ``check_stream_equivalence``, which holds
    the stream to the one-shot candidate pairs, can notice.  The resolver
    looks ``extend`` up on its join at call time.
    """
    from ..similarity.batch import PostingJoin

    original = PostingJoin.extend

    def mutated(self, token_sets, probe=True):
        first = len(self)
        pairs = original(self, token_sets, probe=probe)
        # bug: no pair reaches a record of an earlier extend
        return [pair for pair in pairs if pair[0] >= first]

    return _patched((PostingJoin, "extend", mutated))


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


def _mutant_join_overlap_ceil():
    """The candidate join takes its overlap floor from ``ceil(tau * size)``.

    Models the count-filter bound written in real arithmetic: ``0.28 *
    25`` rounds to ``7.000000000000001``, so the floor asks a 25-token
    probe for 8 shared tokens although the verification keeps 7 of 25.
    Only pairs on such a float edge vanish, and the battery's tables hold
    none at their thresholds, so only the overlap-floor instance of
    ``check_join_methods`` can notice.  The join looks the floor helper up
    at call time.
    """
    from ..similarity import batch

    def mutated(max_size, threshold):
        # bug: the bound in real arithmetic, not the verification's division
        return np.ceil(threshold * np.arange(max_size + 1)).astype(np.int64)

    return _patched((batch, "_overlap_floor", mutated))


def _mutant_join_block_tail_dropped():
    """The candidate join never verifies its last, partial block of records.

    Models the classic slip in a blocked loop: the buffered work is
    flushed only when a block fills, so the records of an extend's last,
    partial block (``n mod B`` of them, ``B = batch._JOIN_BLOCK``) are
    never verified and their pairs vanish.  Every battery table is smaller than one block, so
    each of its joins is that partial block; ``check_join_methods`` is the
    first step to diff the join against an oracle.  The join looks the
    block probe up on itself at call time.
    """
    from ..similarity import batch
    from ..similarity.batch import PostingJoin

    original = PostingJoin._probe_block

    def mutated(self, first, rows, cuts, arrays, need):
        if len(rows) < batch._JOIN_BLOCK:  # bug: a partial block is dropped
            none = np.zeros(0, dtype=np.int64)
            return none, none
        return original(self, first, rows, cuts, arrays, need)

    return _patched((PostingJoin, "_probe_block", mutated))


def _mutant_vote_tie_green():
    """An inferred vertex with as many GREEN as RED votes turns GREEN.

    Models a ``>`` that became ``>=`` in the majority vote: ties are the
    paper's parallel-round conflicts, and coloring them GREEN merges
    clusters on no evidence.  No selector run of the battery ends a round
    on a tie, so only the round replay of ``vote_tie_instance`` (a chain
    whose top is answered No and whose bottom is answered Yes in one
    round) can notice.  Patched at ``ColoringState._refresh``, which
    ``apply_round`` looks up on the state at call time.
    """
    from ..graph.coloring import Color, ColoringState

    def mutated(self, mask):
        active = mask & ~self._pinned
        greens = self._green_votes[active] >= self._red_votes[active]  # bug: ties GREEN
        self.colors[np.flatnonzero(active)] = np.where(greens, Color.GREEN, Color.RED)

    return _patched((ColoringState, "_refresh", mutated))


def _mutant_obs_perturbs_selection():
    """Observability stops being read-only: it drops a vertex per round.

    Models the instrumentation bug the transparency contract exists for — a
    hook that *steers* the run instead of observing it.  The perturbation
    fires only when observability is enabled, so every obs-off check in the
    battery sails through; only ``check_observability_transparent`` (the one
    step that runs the pipeline under an active handle and compares it
    against the plain run) can catch it — proving that check has teeth.
    Its call site (``selection.base``) imports the
    :mod:`repro.obs.instrument` *module*, so patching the defining module's
    attribute reaches it.
    """
    from ..obs import instrument as obs_instrument

    original = obs_instrument.observe_round

    def mutated(obs, selector_name, round_index, vertices):
        vertices = original(obs, selector_name, round_index, vertices)
        if obs.enabled and len(vertices) > 1:
            return vertices[:-1]  # bug: instrumentation steers the run
        return vertices

    return _patched((obs_instrument, "observe_round", mutated))


MUTANTS: tuple[Mutant, ...] = (
    Mutant(
        "drop-dominance-edge",
        "the reference dominance tiles silently lose one edge",
        _mutant_drop_dominance_edge,
    ),
    Mutant(
        "reachability-ragged-block",
        "the index build's ancestor rows lose their bits inside the last, "
        "ragged row block",
        _mutant_reachability_ragged_block,
    ),
    Mutant(
        "prefix-table-nan",
        "the index build counts thresholds with a plain searchsorted (NaN largest)",
        _mutant_prefix_table_nan,
    ),
    Mutant(
        "sum-order-extension",
        "the linear extension orders vertices by float row sums",
        _mutant_sum_order_extension,
    ),
    Mutant(
        "split-midpoint-tie",
        "Split grouping puts a member on a node's midpoint in the upper half",
        _mutant_split_midpoint_tie,
    ),
    Mutant(
        "split-partition-offset-shift",
        "the grouped graph cuts Split's flat partition one group size late",
        _mutant_split_partition_offset_shift,
    ),
    Mutant(
        "non-strict-dominance",
        "the index build keeps >= everywhere without a strict >",
        _mutant_non_strict_dominance,
    ),
    Mutant(
        "inverted-propagation",
        "the index's vote counts swap GREEN and RED directions",
        _mutant_inverted_propagation,
    ),
    Mutant(
        "topo-layer-merge",
        "all Kahn levels collapse into a single layer",
        _mutant_topo_layer_merge,
    ),
    Mutant(
        "overlapping-paths",
        "the reference minimum path cover repeats a vertex",
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
        "crowd-draw-no-rejection",
        "the batched crowd-draw kernel's bounded draw never rejects",
        _mutant_crowd_draw_no_rejection,
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
        "stream-resume-forgets-postings",
        "a resumed join extend probes only its own batch's postings",
        _mutant_stream_resume_forgets_postings,
    ),
    Mutant(
        "serve-cross-session-leak",
        "the session registry restores another live tenant's resolver",
        _mutant_serve_cross_session_leak,
    ),
    Mutant(
        "join-overlap-ceil",
        "the candidate join's overlap floor comes from ceil(threshold * size)",
        _mutant_join_overlap_ceil,
    ),
    Mutant(
        "join-block-tail-dropped",
        "the candidate join never verifies its last, partial block of records",
        _mutant_join_block_tail_dropped,
    ),
    Mutant(
        "vote-tie-green",
        "an inferred vertex with tied GREEN and RED votes is colored GREEN",
        _mutant_vote_tie_green,
    ),
)


# --------------------------------------------------------------------------- #
# Detection battery
# --------------------------------------------------------------------------- #


@lru_cache(maxsize=2)
def _battery_table(scale: float = 0.05):
    """A small cached restaurant sample for the join, stream and serve steps.

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
    include_grouping: bool = True,
) -> None:
    """The compact all-subsystem sweep each mutant must fail.

    Raises :class:`~repro.exceptions.VerificationError` (or crashes) on the
    first check that notices anything wrong; completes silently on healthy
    code.

    Args:
        seed: base seed threaded through every stochastic component.
        include_stream: run the streaming-equivalence step.  On by default;
            the flag exists so tests can prove
            ``stream-resume-forgets-postings`` is detected by *only* that step (the battery minus the stream
            check must sail through under the mutant).
        include_serve: run the serve-equivalence step, with the analogous
            exclusivity role for ``serve-cross-session-leak``.
        include_grouping: run the Split-grouping step, with the analogous
            exclusivity role for ``split-midpoint-tie`` and
            ``split-partition-offset-shift`` (every other step groups both
            of its sides with the same production code).
    """
    pairs, vectors = _battery_fixture(seed)

    # Construction + structural invariants.
    oracles.check_dominance_construction(vectors)
    graph = PairGraph(pairs, vectors)
    invariants.check_partial_order(graph)
    invariants.check_acyclicity(graph)
    invariants.check_topo_layers(graph)
    invariants.check_path_cover(graph)

    # The packed reachability index: on the fixture, on a fresh graph whose
    # last row block is ragged (256 + 4 rows), and where a NaN similarity
    # compares false: the only step with a NaN, hence the only one able to
    # catch the prefix-table-nan mutant.
    from .battery import (
        float_sum_tie_instance,
        nan_instance,
        overlap_floor_instance,
        quarter_grid_vectors,
        random_instance,
        vote_tie_instance,
    )

    invariants.check_reachability_index(graph)
    invariants.check_reachability_index(PairGraph(*random_instance(seed, 260)))
    invariants.check_reachability_index(PairGraph(*nan_instance()))

    # The index and its layers where a float row sum ties under dominance:
    # the only step that tells the exact linear extension from a sum order
    # (the sum-order-extension mutant).
    oracles.check_linear_extension(*float_sum_tie_instance())

    # Split grouping, and the grouped graph build_graph makes from its flat
    # partition, vs the per-node reference, on the fixture and on a quarter
    # grid whose members sit on node midpoints: the only step that compares
    # production groups with independently derived ones.
    if include_grouping:
        oracles.check_split_grouping(vectors, 0.15)
        oracles.check_split_grouping(quarter_grid_vectors(seed), 0.25)

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

    # Candidate join vs the naive and prefix oracles, on the battery table
    # and where kept pairs sit on the overlap floor's float edge: the only
    # step that can see the join-overlap-ceil mutant.
    oracles.check_join_methods(_battery_table(), PowerConfig().pruning_threshold)
    oracles.check_join_methods(*overlap_floor_instance())

    # The round update vs the one-answer-at-a-time engine (BLUE answers,
    # multi-vertex and budget-truncated rounds), and on a round that ties
    # a vertex's votes: the only step that can see the vote-tie-green
    # mutant.
    oracles.check_round_update("power", pairs, vectors, seed=seed, budget=12)
    oracles.check_round_update("multi-path", pairs, vectors, seed=seed)
    oracles.check_round_replay(*vote_tie_instance())

    # The batched crowd-draw kernel vs numpy's own generators, down to
    # the bounds near 2**31 where Lemire's rejection fires: the only step
    # that can see the crowd-draw-no-rejection mutant.
    oracles.check_crowd_draws(seed)

    # Crowd aggregation: heterogeneous accuracies, weighted majority.
    mixed_truth = {pair: bool(index % 2) for index, pair in enumerate(pairs)}
    crowd = SimulatedCrowd(
        mixed_truth,
        pool=WorkerPool(accuracy_range="80", seed=seed),
        assignments=5,
        aggregation="weighted",
    )
    oracles.check_crowd_aggregation(crowd, pairs[:10])

    # Streamed vs one-shot resolution (single batch, multi batch under the
    # monotone exactness oracle, kill-resume): the only step that compares
    # a join resumed across batches with the one-shot join, hence the only
    # one able to catch the stream-resume-forgets-postings mutant.
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


@contextmanager
def _held_server_log() -> Iterator[list[logging.LogRecord]]:
    """Hold the serve layer's log records instead of printing them.

    A mutant can make a served request fail (``ServeApp.dispatch`` logs
    the error with its traceback), and that record is the mutant's doing,
    not a fault to report on stderr.
    """
    from ..serve import server

    logger = logging.getLogger(server.__name__)
    records: list[logging.LogRecord] = []

    def hold(record: logging.LogRecord) -> bool:
        records.append(record)
        return False  # filtered out: no handler, here or above, emits it

    logger.addFilter(hold)
    try:
        yield records
    finally:
        logger.removeFilter(hold)


def _run_mutant(mutant: Mutant, seed: int) -> CheckResult:
    """Run the detection battery under *mutant*; passed means it was caught.

    The result's detail names the first failure and, when the mutant made
    the server log anything, how many records it logged.
    """
    started = time.perf_counter()
    detected_by: str | None = None
    with _held_server_log() as logged, mutant.activate():
        try:
            run_detection_battery(seed)
        except VerificationError as error:
            detected_by = f"VerificationError: {error}"
        except Exception as error:  # noqa: BLE001 - loud crash also counts
            detected_by = f"{type(error).__name__}: {error}"
    elapsed = time.perf_counter() - started
    note = f" ({len(logged)} serve log records)" if logged else ""
    if detected_by is None:
        return CheckResult(
            name=f"mutant[{mutant.name}]",
            passed=False,
            detail=f"seeded bug went undetected: {mutant.description}{note}",
            seconds=elapsed,
        )
    return CheckResult(
        name=f"mutant[{mutant.name}]",
        passed=True,
        detail=detected_by.splitlines()[0][:160] + note,
        seconds=elapsed,
    )


def run_mutation_selftest(seed: int = 0) -> VerificationReport:
    """Activate each mutant, demand the battery notices, restore, repeat.

    Returns:
        A report with one entry per mutant.  An entry *passes* when the
        battery raised under the mutant (bug detected) and the pristine
        battery still passes afterwards (patch fully restored).
    """
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
        report.add(_run_mutant(mutant, seed))
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
