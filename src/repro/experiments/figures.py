"""One harness per table/figure of the paper's evaluation (§7 + Appendix E).

Every function prints the same rows/series the paper reports (via
:mod:`repro.experiments.reporting`) and returns them as data.  The
``benchmarks/`` suite wraps these functions with pytest-benchmark and
persists their tables under ``benchmarks/results/``.

Scale note: absolute sizes are laptop-scale (see DESIGN.md); the *shape* of
each result — who wins, by roughly what factor — is the reproduction target.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

from ..core import pairwise_quality
from ..data import num_entities, paper_pairs, paper_vectors
from ..graph import (
    GroupedGraph,
    PairGraph,
    brute_force_edges,
    greedy_grouping,
    index_edges,
    quicksort_edges,
    split_grouping,
)
from ..exceptions import ConfigurationError
from ..selection import (
    MultiPathSelector,
    RandomSelector,
    SinglePathSelector,
    TopoSortSelector,
)
from ..similarity import SimilarityConfig, batch_similarity_matrix
from .reporting import emit
from .runner import (
    METHODS,
    run_method,
    WORKER_BANDS,
    MethodRow,
    Workload,
    average_rows,
    compare_methods,
    fast_mode,
    make_crowd,
    prepare,
)

DEFAULT_DATASETS = ("restaurant", "cora", "acmpub")


def _seeds(count: int) -> tuple[int, ...]:
    return tuple(range(2 if fast_mode() else count))


# --------------------------------------------------------------------- #
# Tables 1-3
# --------------------------------------------------------------------- #

def table2_similarity(save_to=None) -> list[list]:
    """Table 2: the running example's per-attribute similarity vectors."""
    rows = [
        [f"p{i + 1},{j + 1}", *vector]
        for (i, j), vector in zip(paper_pairs(), paper_vectors())
    ]
    emit("Table 2: record similarity (paper example)",
         ["pair", "s1", "s2", "s3", "s4"], rows, save_to)
    return rows


def table3_datasets(datasets: Sequence[str] = DEFAULT_DATASETS, save_to=None) -> list[list]:
    """Table 3: dataset statistics at benchmark scale."""
    rows = []
    for name in datasets:
        workload = prepare(name)
        rows.append([
            name,
            len(workload.table),
            num_entities(workload.table),
            workload.table.num_attributes,
            len(workload.pairs),
            5,
        ])
    emit("Table 3: datasets (benchmark scale)",
         ["dataset", "#records", "#entities", "#attrs", "#pairs", "#workers/pair"],
         rows, save_to)
    return rows


# --------------------------------------------------------------------- #
# Figs 9-14: the main comparison, varying worker accuracy
# --------------------------------------------------------------------- #

def accuracy_sweep(
    mode: str = "simulation",
    datasets: Sequence[str] = DEFAULT_DATASETS,
    bands: Sequence[str] = WORKER_BANDS,
    num_seeds: int = 3,
    save_to=None,
) -> list[MethodRow]:
    """Figs 9-11 (mode="real") / Figs 12-14 (mode="simulation").

    Quality, #questions and #iterations for all five methods, per dataset
    and worker-accuracy band, averaged over seeds.
    """
    label = "real" if mode == "real" else "simulation"
    averaged: list[MethodRow] = []
    for name in datasets:
        workload = prepare(name)
        for band in bands:
            per_method: dict[str, list[MethodRow]] = {m: [] for m in METHODS}
            for seed in _seeds(num_seeds):
                for row in compare_methods(workload, band, seed, mode=mode):
                    per_method[row.method].append(row)
            averaged.extend(average_rows(rows) for rows in per_method.values())
    table_rows = [
        [r.dataset, r.band, r.method, r.f_measure, r.questions, r.iterations, r.cost_cents]
        for r in averaged
    ]
    emit(
        f"Figs {'9-11' if mode == 'real' else '12-14'}: accuracy sweep ({label} workers)",
        ["dataset", "band", "method", "F1", "#questions", "#iterations", "cost(c)"],
        table_rows, save_to,
    )
    return averaged


# --------------------------------------------------------------------- #
# Figs 15-17: varying the similarity function
# --------------------------------------------------------------------- #

def similarity_function_sweep(
    functions: Sequence[str] = ("jaccard", "edit", "bigram"),
    datasets: Sequence[str] = ("restaurant", "cora"),
    num_seeds: int = 2,
    save_to=None,
) -> list[MethodRow]:
    """Figs 15-17: quality / #questions / #iterations per similarity function
    (90 %-band workers, real regime, as in §7.3)."""
    averaged: list[MethodRow] = []
    for name in datasets:
        for function in functions:
            workload = prepare(name, similarity=function)
            per_method: dict[str, list[MethodRow]] = {m: [] for m in METHODS}
            for seed in _seeds(num_seeds):
                for row in compare_methods(workload, "90", seed, mode="real"):
                    per_method[row.method].append(row)
            for rows in per_method.values():
                row = average_rows(rows)
                row.band = function
                averaged.append(row)
    table_rows = [
        [r.dataset, r.band, r.method, r.f_measure, r.questions, r.iterations]
        for r in averaged
    ]
    emit("Figs 15-17: similarity-function sweep (90% workers)",
         ["dataset", "similarity", "method", "F1", "#questions", "#iterations"],
         table_rows, save_to)
    return averaged


# --------------------------------------------------------------------- #
# Fig 20: graph construction efficiency
# --------------------------------------------------------------------- #

def construction_benchmark(
    dataset: str = "restaurant",
    sizes: Sequence[int] | None = None,
    save_to=None,
) -> list[list]:
    """Fig 20: construction time of BruteForce vs QuickSort vs Index."""
    workload = prepare(dataset)
    if sizes is None:
        top = len(workload.pairs)
        sizes = [n for n in (500, 1000, 2000, 4000, 8000) if n <= top] or [top]
        if fast_mode():
            sizes = sizes[:2]
    rows = []
    for size in sizes:
        vectors = workload.vectors[:size]
        timings = {}
        for label, algorithm in (
            ("brute-force", brute_force_edges),
            ("quicksort", quicksort_edges),
            ("index", index_edges),
        ):
            started = time.perf_counter()
            edges = algorithm(vectors)
            timings[label] = time.perf_counter() - started
        rows.append([dataset, size, len(edges),
                     timings["brute-force"], timings["quicksort"], timings["index"]])
    emit("Fig 20: graph construction time (seconds)",
         ["dataset", "#pairs", "#edges", "brute-force", "quicksort", "index"],
         rows, save_to)
    return rows


# --------------------------------------------------------------------- #
# Figs 21-22: grouping algorithms
# --------------------------------------------------------------------- #

def grouping_benchmark(
    datasets: Sequence[str] = ("restaurant", "cora"),
    epsilons: Sequence[float] = (0.05, 0.1, 0.15, 0.2),
    greedy_cap: int = 6000,
    save_to=None,
) -> list[list]:
    """Figs 21-22: #groups and grouping time, Greedy vs Split.

    Greedy is exponential in the attribute count (the paper could not run
    it on ACMPub within 10 hours); inputs above *greedy_cap* pairs, or whose
    maximal-group join explodes, are reported as "n/a" like the paper does.
    """
    rows = []
    for name in datasets:
        workload = prepare(name)
        for epsilon in epsilons:
            started = time.perf_counter()
            split = split_grouping(workload.vectors, epsilon)
            split_time = time.perf_counter() - started
            greedy_groups, greedy_time = "n/a", "n/a"
            if len(workload.pairs) <= greedy_cap:
                try:
                    started = time.perf_counter()
                    greedy = greedy_grouping(
                        workload.vectors, epsilon, max_candidates=300_000
                    )
                    greedy_time = round(time.perf_counter() - started, 3)
                    greedy_groups = len(greedy)
                except ConfigurationError:
                    pass
            rows.append([name, epsilon, len(split), round(split_time, 4),
                         greedy_groups, greedy_time])
    emit("Figs 21-22: grouping — #groups and time (seconds)",
         ["dataset", "eps", "split #groups", "split time",
          "greedy #groups", "greedy time"],
         rows, save_to)
    return rows


# --------------------------------------------------------------------- #
# Figs 23-24: grouping vs non-grouping
# --------------------------------------------------------------------- #

def group_vs_nongroup(
    dataset: str = "restaurant",
    epsilons: Sequence[float] = (0.05, 0.1, 0.15, 0.2),
    max_pairs: int = 4000,
    band: str = "90",
    seed: int = 0,
    save_to=None,
) -> list[list]:
    """Figs 23-24: SinglePath on raw vs split- vs greedy-grouped graphs.

    The non-grouped graph is capped at *max_pairs* vertices because
    SinglePath recomputes a maximum matching per path (O(B |V|^2)) — the
    cap preserves the paper's shape (grouping cuts questions ~10x at a
    small quality cost) at laptop runtimes.
    """
    workload = prepare(dataset, max_pairs=max_pairs)
    crowd = make_crowd(workload, band, seed, mode="real")
    base = PairGraph(workload.pairs, workload.vectors)

    def run_on(graph, label, epsilon):
        result = SinglePathSelector(seed=seed).run(graph, crowd.session())
        quality = pairwise_quality(
            {p for p, v in result.labels.items() if v}, workload.gold
        )
        return [dataset, label, epsilon, quality.f_measure, result.questions]

    rows = [run_on(base, "non-group", "-")]
    for epsilon in epsilons:
        split = GroupedGraph(base, split_grouping(workload.vectors, epsilon))
        rows.append(run_on(split, "split", epsilon))
        try:
            greedy = GroupedGraph(
                base, greedy_grouping(workload.vectors, epsilon, max_candidates=300_000)
            )
            rows.append(run_on(greedy, "greedy", epsilon))
        except ConfigurationError:
            rows.append([dataset, "greedy", epsilon, "n/a", "n/a"])
    emit("Figs 23-24: grouping vs non-grouping (SinglePath)",
         ["dataset", "grouping", "eps", "F1", "#questions"], rows, save_to)
    return rows


# --------------------------------------------------------------------- #
# Figs 25-26: serial question selection
# --------------------------------------------------------------------- #

def serial_selection(
    dataset: str = "restaurant",
    sizes: Sequence[int] = (250, 500, 1000, 2000),
    band: str = "90",
    seed: int = 0,
    save_to=None,
) -> list[list]:
    """Figs 25-26: Random vs SinglePath on non-grouped graphs vs #pairs."""
    if fast_mode():
        sizes = tuple(sizes)[:2]
    rows = []
    for size in sizes:
        workload = prepare(dataset, max_pairs=size)
        crowd = make_crowd(workload, band, seed, mode="real")
        graph = PairGraph(workload.pairs, workload.vectors)
        for selector in (RandomSelector(seed=seed), SinglePathSelector(seed=seed)):
            result = selector.run(graph, crowd.session())
            quality = pairwise_quality(
                {p for p, v in result.labels.items() if v}, workload.gold
            )
            rows.append([dataset, size, result.name, quality.f_measure, result.questions])
    emit("Figs 25-26: serial selection (Random vs SinglePath)",
         ["dataset", "#pairs", "selector", "F1", "#questions"], rows, save_to)
    return rows


# --------------------------------------------------------------------- #
# Figs 27-30: parallel question selection
# --------------------------------------------------------------------- #

def parallel_selection(
    datasets: Sequence[str] = DEFAULT_DATASETS,
    epsilon: float = 0.1,
    band: str = "90",
    seed: int = 0,
    save_to=None,
) -> list[list]:
    """Figs 27-30: SinglePath vs Multi-Path vs Power on grouped graphs:
    quality, #questions, #iterations, and assignment time."""
    rows = []
    for name in datasets:
        workload = prepare(name)
        crowd = make_crowd(workload, band, seed, mode="real")
        base = PairGraph(workload.pairs, workload.vectors)
        grouped = GroupedGraph(base, split_grouping(workload.vectors, epsilon))
        for selector in (
            SinglePathSelector(seed=seed),
            MultiPathSelector(seed=seed),
            TopoSortSelector(seed=seed),
        ):
            result = selector.run(grouped, crowd.session())
            quality = pairwise_quality(
                {p for p, v in result.labels.items() if v}, workload.gold
            )
            rows.append([
                name, result.name, quality.f_measure, result.questions,
                result.iterations, result.assignment_time,
            ])
    emit("Figs 27-30: parallel selection on grouped graphs",
         ["dataset", "selector", "F1", "#questions", "#iterations", "assign time (s)"],
         rows, save_to)
    return rows


# --------------------------------------------------------------------- #
# Figs 31-33: error tolerance
# --------------------------------------------------------------------- #

def error_tolerant_sweep(
    datasets: Sequence[str] = ("restaurant", "cora"),
    epsilons: Sequence[float] = (0.05, 0.1, 0.15, 0.2),
    band: str = "80",
    num_seeds: int = 3,
    save_to=None,
) -> list[list]:
    """Figs 31-33: Power vs Power+ over the grouping threshold epsilon."""
    rows = []
    for name in datasets:
        workload = prepare(name)
        for epsilon in epsilons:
            for method in ("power", "power+"):
                seed_rows = []
                for seed in _seeds(num_seeds):
                    crowd = make_crowd(workload, band, seed, mode="simulation")
                    seed_rows.append(
                        run_method(method, workload, crowd, seed=seed, epsilon=epsilon)
                    )
                row = average_rows(seed_rows)
                rows.append([name, epsilon, method, row.f_measure,
                             row.questions, row.iterations])
    emit(f"Figs 31-33: error tolerance (band {band}, simulation workers)",
         ["dataset", "eps", "method", "F1", "#questions", "#iterations"],
         rows, save_to)
    return rows


# --------------------------------------------------------------------- #
# Fig 34: number of attributes (Cora)
# --------------------------------------------------------------------- #

def attribute_sweep(
    counts: Sequence[int] = (2, 4, 6, 8),
    band: str = "90",
    seed: int = 0,
    save_to=None,
) -> list[list]:
    """Fig 34: effect of the attribute count on Cora."""
    full = prepare("cora")
    rows = []
    for count in counts:
        table = full.table.project(list(range(count)), name=f"cora[{count}]")
        config = SimilarityConfig.uniform(count)
        vectors = batch_similarity_matrix(table, full.pairs, config)
        workload = Workload(
            name=f"cora-{count}attrs",
            table=table,
            pairs=full.pairs,
            vectors=vectors,
            scores=vectors.mean(axis=1),
            truth=full.truth,
            gold=full.gold,
            pruning_threshold=full.pruning_threshold,
        )
        crowd = make_crowd(workload, band, seed, mode="real")
        row = run_method("power+", workload, crowd, seed=seed)
        rows.append([count, row.f_measure, row.questions, row.iterations])
    emit("Fig 34: varying the number of attributes (Cora, Power+)",
         ["#attributes", "F1", "#questions", "#iterations"], rows, save_to)
    return rows
