"""The ``repro verify`` battery: one command that runs the whole suite.

Orchestrates every oracle, invariant, metamorphic property, and the
mutation self-test into a single :class:`~repro.verify.report.VerificationReport`:

1. **synthetic sweeps** — random similarity matrices across many seeds
   drive the construction and Split-grouping oracles, the structural
   invariants, the production-vs-naive selector differentials (perfect
   and noisy crowds, grouped and ungrouped graphs), the round update vs
   the one-answer-at-a-time engine on every selector and on one round
   that ties a vertex's GREEN and RED votes, and the batched
   crowd-draw kernel vs numpy's own generators; graphs sized across
   byte and tile boundaries, and a NaN similarity, drive the packed
   reachability-index check,
   a float-sum tie, signed zeros and duplicate rows drive the index and
   both layering paths,
   and a quarter-grid matrix (members on node midpoints) plus the 0- and
   1-vertex inputs drive the grouping check;
2. **dataset checks** — a (subsampled) benchmark dataset goes through the
   real pipeline: batch-similarity and join oracles, graph invariants on
   the actual dominance DAG, an end-to-end resolution under the always-on
   :class:`~repro.verify.invariants.VerifyingSession` sanitizer, clustering
   and quality cross-checks, and the metamorphic laws; the join oracles
   also run where kept pairs sit on the overlap floor's float edge, and
   the stream differential on a table with empty-token records;
3. **mutation self-test** — seeded bugs are injected and every one must be
   detected (:mod:`repro.verify.mutation`), proving the suite has teeth.

Used by the ``repro verify`` CLI subcommand and ``make verify``; the pieces
remain importable for targeted use in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.clustering import clusters_from_matches
from ..core.config import PowerConfig
from ..crowd.platform import PerfectCrowd, SimulatedCrowd
from ..crowd.worker import WorkerPool
from ..data.table import Table
from ..exceptions import DataError
from ..graph.coloring import Color
from ..graph.dag import PairGraph
from ..graph.grouped_graph import GroupedGraph
from ..graph.grouping import split_grouping
from ..selection import SELECTORS
from . import invariants, metamorphic, oracles
from .mutation import run_mutation_selftest
from .report import VerificationReport, run_check


@dataclass(frozen=True)
class BatteryConfig:
    """Knobs for one verification run.

    Attributes:
        dataset: benchmark dataset name (``repro.data.generators.DATASETS``).
        scale: fraction of the dataset's records to keep (prefix subsample;
            the generators emit an entity's duplicates together, so a prefix
            keeps the duplicate structure intact).
        seeds: how many random-matrix seeds drive the synthetic sweeps.
        num_vertices: vertices per synthetic instance.
        num_attributes: attribute count per synthetic instance.
        selectors: selector names to differential-test; empty means every
            registered selector plus the greedy reference policy.
        epsilon: grouping threshold for the grouped differential runs.
        include_mutation: run the seeded-mutant self-test.
        include_metamorphic: run the metamorphic laws on the dataset.
        base_seed: offset added to every per-seed derivation.
    """

    dataset: str = "restaurant"
    scale: float = 1.0
    seeds: int = 10
    num_vertices: int = 24
    num_attributes: int = 4
    selectors: tuple[str, ...] = ()
    epsilon: float = 0.15
    include_mutation: bool = True
    include_metamorphic: bool = True
    base_seed: int = 0

    def selector_names(self) -> tuple[str, ...]:
        if self.selectors:
            return self.selectors
        return tuple(sorted(SELECTORS)) + ("greedy-reference",)


def random_instance(
    seed: int, num_vertices: int = 24, num_attributes: int = 4
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """A synthetic (pairs, vectors) instance with a rich partial order.

    Similarities are quantized to one decimal so the order has duplicate
    vectors, long chains, and wide antichains — the regimes that stress the
    dominance kernels and the inference engine.
    """
    rng = np.random.default_rng(seed)
    vectors = rng.random((num_vertices, num_attributes)).round(1)
    pairs = [(2 * k, 2 * k + 1) for k in range(num_vertices)]
    return pairs, vectors


def quarter_grid_vectors(
    seed: int, num_vertices: int = 64, num_attributes: int = 4
) -> np.ndarray:
    """Similarities on the grid {0, .25, .5, .75, 1}.

    Split halves a full [0, 1] range at .5 and a half range at .25 or .75,
    so members sit exactly on node midpoints, and at epsilon .25 or .5
    node spans equal epsilon: the ties the grouping's strict comparisons
    decide.
    """
    rng = np.random.default_rng(seed)
    return rng.integers(0, 5, (num_vertices, num_attributes)) / 4.0


def float_sum_tie_instance() -> tuple[list[tuple[int, int]], np.ndarray]:
    """Three vertices whose float row sums tie under dominance.

    Vertex 1 dominates 0, which dominates 2, so Kahn peeling gives
    ``[[1], [0], [2]]``; but ``1.0 + 1e-17`` rounds to ``1.0``, and a
    stable descending-sum order puts vertex 0 before 1.
    """
    vectors = np.array([[1.0, 0.0], [1.0, 1e-17], [0.5, 0.0]])
    return [(0, 1), (0, 2), (1, 2)], vectors


def nan_instance() -> tuple[list[tuple[int, int]], np.ndarray]:
    """Three vertices, one with a NaN similarity, which compares false.

    Vertex 0's NaN leaves it above and below nothing, so the only edge is
    ``1 > 2``; a threshold count that sorts NaN as the largest value has
    vertex 0 dominate both others.
    """
    vectors = np.array([[0.5, np.nan], [0.4, 0.3], [0.2, 0.1]])
    return [(0, 1), (0, 2), (1, 2)], vectors


def vote_tie_instance() -> tuple[
    list[tuple[int, int]], np.ndarray, list[list[tuple[int, Color]]]
]:
    """One round whose answers tie the votes of the unasked vertex between them.

    Vertices ``0 > 1 > 2`` form a chain.  The round asks the top and gets
    No, a RED vote for 1 and 2, and asks the bottom and gets Yes, a GREEN
    vote for 0 and 1.  Vertex 1 holds one vote of each, and a tie is RED.
    No selector run in the battery ends a round on such a tie.
    """
    vectors = np.array([[0.9, 0.9], [0.6, 0.6], [0.3, 0.3]])
    return [(0, 1), (0, 2), (1, 2)], vectors, [[(0, Color.RED), (2, Color.GREEN)]]


def overlap_floor_instance() -> tuple[Table, float]:
    """A join instance whose kept pairs sit on the overlap floor's float edge.

    At ``tau = 0.28`` a 7-word record inside a later 25-word one scores
    exactly ``7 / 25 == 0.28`` and is kept, and so is 14 of 50; yet
    ``0.28 * 25`` rounds to ``7.000000000000001`` and ``0.28 * 50`` to
    ``14.000000000000002``, so a floor taken from ``ceil(tau * size)``
    for the larger, probing record drops both pairs.
    """
    rows = [
        [f"w{k}" for k in range(7)],
        [f"w{k}" for k in range(25)],
        [f"v{k}" for k in range(14)],
        [f"v{k}" for k in range(50)],
        [f"w{k}" for k in range(6)],
    ]
    table = Table.from_rows("overlap-floor", ("text",), [(" ".join(row),) for row in rows])
    return table, 0.28


def empty_token_table() -> Table:
    """Two records without word tokens among ordinary ones.

    ``jaccard(∅, ∅) == 1.0``, so the one-shot join pairs records 1 and 3,
    and a one-batch stream must decide that pair too.
    """
    rows = [
        ("alpha beta", "x"),
        ("!!!", "..."),
        ("alpha beta", "x"),
        ("", ""),
        ("gamma delta", "y"),
        ("gamma delta", "z"),
    ]
    return Table.from_rows("empty-tokens", ("a", "b"), rows, [0, 1, 0, 1, 2, 2])


def signed_zero_instance(
    seed: int, num_vertices: int, num_attributes: int = 4
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """A random instance with duplicate rows and ``-0.0`` beside ``0.0``.

    Values below 0.3 become zeros, the last quarter of the rows copies the
    first, and a coin flip makes each zero ``-0.0``: rows equal under
    ``==`` whose bytes differ, which a byte-wise row comparison gets wrong.
    """
    pairs, vectors = random_instance(seed, num_vertices, num_attributes)
    vectors[vectors < 0.3] = 0.0
    copies = num_vertices // 4
    vectors[num_vertices - copies :] = vectors[:copies]
    coins = np.random.default_rng(seed + 1).random(vectors.shape) < 0.5
    vectors[coins & (vectors == 0.0)] = -0.0
    return pairs, vectors


def subsample_table(table: Table, scale: float, minimum: int = 20) -> Table:
    """The first ``round(scale * len(table))`` records (at least *minimum*).

    The dataset generators emit each entity's duplicates consecutively, so
    a prefix keeps duplicate pairs in the sample; random sampling would
    mostly strip them out and leave a trivial graph.
    """
    if not 0.0 < scale <= 1.0:
        raise DataError(f"scale must be in (0, 1], got {scale}")
    if scale == 1.0:
        return table
    keep = min(len(table), max(minimum, round(scale * len(table))))
    rows = [table[index].values for index in range(keep)]
    entity_ids = [table[index].entity_id for index in range(keep)]
    return Table.from_rows(
        name=f"{table.name}-x{scale:g}",
        attributes=table.attributes,
        rows=rows,
        entity_ids=entity_ids,
    )


# --------------------------------------------------------------------------- #
# Battery sections
# --------------------------------------------------------------------------- #


def _synthetic_sweeps(config: BatteryConfig, report: VerificationReport) -> None:
    selectors = config.selector_names()
    for offset in range(config.seeds):
        seed = config.base_seed + offset
        pairs, vectors = random_instance(
            seed, config.num_vertices, config.num_attributes
        )
        run_check(
            report,
            f"dominance-construction[seed={seed}]",
            lambda v=vectors: oracles.check_dominance_construction(v),
        )
        run_check(
            report,
            f"transitive-closure[seed={seed}]",
            lambda v=vectors: oracles.check_transitive_closure(v),
        )
        run_check(
            report,
            f"split-grouping[seed={seed}]",
            lambda v=vectors: oracles.check_split_grouping(v, config.epsilon),
        )

        def graph_invariants(pairs=pairs, vectors=vectors):
            graph = PairGraph(pairs, vectors)
            invariants.check_partial_order(graph)
            invariants.check_acyclicity(graph)
            invariants.check_topo_layers(graph)
            invariants.check_path_cover(graph)
            grouped = GroupedGraph(graph, split_grouping(vectors, config.epsilon))
            invariants.check_partial_order(grouped)
            invariants.check_grouped_partition(grouped)
            invariants.check_topo_layers(grouped)

        run_check(report, f"graph-invariants[seed={seed}]", graph_invariants)

        for name in selectors:
            run_check(
                report,
                f"selector-differential[{name}, seed={seed}]",
                lambda n=name, p=pairs, v=vectors, s=seed: (
                    oracles.check_selector_differential(n, p, v, seed=s)
                ),
            )
            run_check(
                report,
                f"selector-monotone[{name}, seed={seed}]",
                lambda n=name, p=pairs, v=vectors, s=seed: (
                    oracles.check_selector_monotone_oracle(n, p, v, seed=s)
                ),
            )

            def round_update(name=name, pairs=pairs, vectors=vectors, seed=seed):
                oracles.check_round_update(name, pairs, vectors, seed=seed)
                oracles.check_round_update(
                    name, pairs, vectors, seed=seed, budget=len(pairs) // 3
                )

            run_check(report, f"round-update[{name}, seed={seed}]", round_update)
        run_check(
            report,
            f"crowd-draws[seed={seed}]",
            lambda s=seed: oracles.check_crowd_draws(s),
        )
        for name in ("single-path", "multi-path", "power"):
            run_check(
                report,
                f"selection-incremental[{name}, seed={seed}]",
                lambda n=name, p=pairs, v=vectors, s=seed: (
                    oracles.check_selection_incremental(n, p, v, seed=s)
                ),
            )
        run_check(
            report,
            f"selection-incremental[power, grouped, seed={seed}]",
            lambda p=pairs, v=vectors, s=seed: oracles.check_selection_incremental(
                "power", p, v, seed=s, epsilon=config.epsilon
            ),
        )
        # Grouped and noisy variants (production selector only, cost control).
        run_check(
            report,
            f"selector-differential[power, grouped, seed={seed}]",
            lambda p=pairs, v=vectors, s=seed: oracles.check_selector_differential(
                "power", p, v, seed=s, epsilon=config.epsilon
            ),
        )
        run_check(
            report,
            f"selector-differential[power, noisy, seed={seed}]",
            lambda p=pairs, v=vectors, s=seed: oracles.check_selector_differential(
                "power", p, v, seed=s, band="90"
            ),
        )
        run_check(
            report,
            f"cost-monotonicity[seed={seed}]",
            lambda p=pairs, v=vectors, s=seed: metamorphic.check_cost_monotonicity(
                p, v, seed=s
            ),
        )
        run_check(
            report,
            f"observability-transparent[power, seed={seed}]",
            lambda p=pairs, v=vectors, s=seed: (
                oracles.check_observability_transparent("power", p, v, seed=s)
            ),
        )
    run_check(
        report,
        "round-update[vote-tie]",
        lambda: oracles.check_round_replay(*vote_tie_instance()),
    )


#: Vertex counts that straddle a byte (8) and a block of 256 rows (a
#: dominance tile, and a block of the index build's rows).
REACHABILITY_SIZES = (7, 8, 9, 255, 256, 257, 520)


def _reachability_sweeps(config: BatteryConfig, report: VerificationReport) -> None:
    for n in REACHABILITY_SIZES:
        pairs, vectors = random_instance(
            config.base_seed + n, 2 * n, config.num_attributes
        )
        run_check(
            report,
            f"reachability-index[pair, n={n}]",
            lambda p=pairs[:n], v=vectors[:n]: invariants.check_reachability_index(
                PairGraph(p, v)
            ),
        )
        # Exactly n groups (pair vertices 2g and 2g + 1 form group g), so the
        # grouped graph straddles the same boundaries as the pair graph.
        groups = [[2 * g, 2 * g + 1] for g in range(n)]
        run_check(
            report,
            f"reachability-index[grouped, n={n}]",
            lambda p=pairs, v=vectors, s=groups: invariants.check_reachability_index(
                GroupedGraph(PairGraph(p, v), s)
            ),
        )
    run_check(
        report,
        "reachability-index[NaN]",
        lambda: invariants.check_reachability_index(PairGraph(*nan_instance())),
    )
    run_check(
        report,
        "linear-extension[float-sum tie]",
        lambda: oracles.check_linear_extension(*float_sum_tie_instance()),
    )
    for n in (9, 260):
        run_check(
            report,
            f"linear-extension[signed zeros, n={n}]",
            lambda n=n: oracles.check_linear_extension(
                *signed_zero_instance(config.base_seed + n, n, config.num_attributes)
            ),
        )


#: Epsilons for the quarter-grid grouping checks: the exact-duplicate
#: branch, and two thresholds that node spans on the grid can equal.
QUARTER_GRID_EPSILONS = (0.0, 0.25, 0.5)


def _grouping_sweeps(config: BatteryConfig, report: VerificationReport) -> None:
    vectors = quarter_grid_vectors(config.base_seed, num_attributes=config.num_attributes)
    for epsilon in QUARTER_GRID_EPSILONS:
        run_check(
            report,
            f"split-grouping[quarter-grid, epsilon={epsilon}]",
            lambda e=epsilon: oracles.check_split_grouping(vectors, e),
        )
    for n in (0, 1):
        run_check(
            report,
            f"split-grouping[n={n}]",
            lambda v=vectors[:n]: oracles.check_split_grouping(v, config.epsilon),
        )


def _billing_and_crowd(config: BatteryConfig, report: VerificationReport) -> None:
    pairs, _ = random_instance(config.base_seed, config.num_vertices, 4)

    def billing():
        truth = {pair: True for pair in pairs}
        session = PerfectCrowd(truth).session(pairs_per_hit=5)
        session.ask_batch(pairs[:13])  # 13 at 5/HIT: ceil and floor differ
        invariants.check_session_coherence(session)

    run_check(report, "billing-pooled-ceiling", billing)

    def aggregation():
        truth = {pair: bool(index % 2) for index, pair in enumerate(pairs)}
        for mode in ("weighted", "majority"):
            crowd = SimulatedCrowd(
                truth,
                pool=WorkerPool(accuracy_range="80", seed=config.base_seed),
                assignments=5,
                aggregation=mode,
            )
            oracles.check_crowd_aggregation(crowd, pairs)

    run_check(report, "crowd-aggregation", aggregation)


def _dataset_checks(config: BatteryConfig, report: VerificationReport) -> None:
    from ..core.resolver import PowerResolver
    from ..data.generators import load_dataset

    table = subsample_table(
        load_dataset(config.dataset), config.scale
    )
    power_config = PowerConfig(seed=config.base_seed)
    resolver = PowerResolver(power_config)
    pairs = resolver.candidate_pairs(table)
    if not pairs:
        raise DataError(
            f"no candidate pairs survive pruning on {table.name!r}; "
            "raise --scale"
        )
    vectors = resolver.similarity_vectors(table, pairs)

    run_check(
        report,
        f"batch-similarity[{table.name}]",
        lambda: oracles.check_batch_similarity(
            table, pairs, resolver.similarity_config(table)
        ),
    )
    run_check(
        report,
        f"join-methods[{table.name}]",
        lambda: oracles.check_join_methods(table, power_config.pruning_threshold),
    )
    run_check(
        report,
        "join-methods[overlap-floor]",
        lambda: oracles.check_join_methods(*overlap_floor_instance()),
    )

    def pipeline_graph_invariants():
        graph = PairGraph(pairs, vectors)
        invariants.check_partial_order(graph)
        invariants.check_acyclicity(graph)
        invariants.check_topo_layers(graph)
        invariants.check_path_cover(graph)

    run_check(report, f"pipeline-graph[{table.name}]", pipeline_graph_invariants)
    run_check(
        report,
        f"split-grouping[{table.name}]",
        lambda: oracles.check_split_grouping(vectors, power_config.epsilon),
    )
    run_check(
        report,
        f"reachability-index[{table.name}]",
        lambda: invariants.check_reachability_index(
            resolver.build_graph(table, pairs, vectors=vectors)
        ),
    )

    for name in ("single-path", "multi-path"):
        run_check(
            report,
            f"selection-incremental[{name}, {table.name}]",
            lambda n=name: oracles.check_selection_incremental(
                n, pairs, vectors, seed=config.base_seed
            ),
        )

    def verified_resolution():
        crowd = resolver.simulated_crowd(table, pairs, worker_band="90")
        session = invariants.VerifyingSession(crowd.session())
        result = resolver.resolve(table, session=session)
        invariants.check_session_coherence(session._inner)
        if result.selection.state is not None:
            invariants.check_coloring_state(result.selection.state)
        invariants.check_cluster_union_find(len(table), result.matches)
        oracles.check_entity_quality(table, sorted(result.matches))
        produced = sorted(sorted(cluster) for cluster in result.clusters)
        recomputed = sorted(
            sorted(cluster)
            for cluster in clusters_from_matches(len(table), result.matches)
        )
        if produced != recomputed:
            raise DataError("resolver clusters drifted from its own matches")

    run_check(report, f"verified-resolution[{table.name}]", verified_resolution)
    run_check(
        report,
        f"entity-quality[{table.name}]",
        lambda: oracles.check_entity_quality(table, pairs),
    )

    run_check(
        report,
        f"stream-equivalence[{table.name}]",
        lambda: oracles.check_stream_equivalence(
            table, seed=config.base_seed, batch_counts=(3,)
        ),
    )

    run_check(
        report,
        "stream-equivalence[empty-tokens]",
        lambda: oracles.check_stream_equivalence(
            empty_token_table(), seed=config.base_seed, batch_counts=(3,)
        ),
    )

    run_check(
        report,
        f"serve-equivalence[{table.name}]",
        lambda: oracles.check_serve_equivalence(
            table, seed=config.base_seed, tenants=3, batches=2
        ),
    )

    run_check(
        report,
        f"observability-transparent[{table.name}]",
        lambda: oracles.check_observability_transparent_table(
            table, seed=config.base_seed
        ),
    )

    if config.include_metamorphic:
        run_check(
            report,
            f"permutation-invariance[{table.name}]",
            lambda: metamorphic.check_permutation_invariance(
                table, seed=config.base_seed
            ),
        )
        run_check(
            report,
            f"duplicate-idempotence[{table.name}]",
            lambda: metamorphic.check_duplicate_idempotence(table, record_id=0),
        )


def run_battery(config: BatteryConfig | None = None) -> VerificationReport:
    """Run every section and return the combined report."""
    config = config or BatteryConfig()
    report = VerificationReport()
    _synthetic_sweeps(config, report)
    _reachability_sweeps(config, report)
    _grouping_sweeps(config, report)
    _billing_and_crowd(config, report)
    _dataset_checks(config, report)
    if config.include_mutation:
        report.extend(run_mutation_selftest(seed=config.base_seed))
    return report


__all__ = [
    "BatteryConfig",
    "empty_token_table",
    "float_sum_tie_instance",
    "nan_instance",
    "overlap_floor_instance",
    "quarter_grid_vectors",
    "random_instance",
    "signed_zero_instance",
    "subsample_table",
    "run_battery",
    "vote_tie_instance",
]
