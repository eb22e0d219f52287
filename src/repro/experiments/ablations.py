"""Ablation harnesses for the design choices DESIGN.md calls out.

Each sweeps one knob of the Power/Power+ pipeline while holding the rest at
the paper's defaults, quantifying what that design choice buys.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..core import PowerConfig, PowerResolver, pairwise_quality
from ..graph import GroupedGraph, PairGraph, split_grouping
from ..selection import SinglePathSelector, TopoSortSelector
from .reporting import emit
from .runner import average_rows, fast_mode, make_crowd, prepare, run_method


def _seeds(count: int) -> tuple[int, ...]:
    return tuple(range(2 if fast_mode() else count))


def confidence_sweep(
    thresholds: Sequence[float] = (0.6, 0.7, 0.8, 0.9, 0.99),
    dataset: str = "restaurant",
    band: str = "70",
    num_seeds: int = 3,
    save_to=None,
) -> list[list]:
    """Ablate the Power+ confidence threshold (paper default 0.8).

    Too low: wrong answers propagate (quality drops toward plain Power).
    Too high: almost everything is BLUE, costing questions and pushing the
    decision onto the histogram.
    """
    workload = prepare(dataset)
    rows = []
    for threshold in thresholds:
        seed_rows = []
        for seed in _seeds(num_seeds):
            crowd = make_crowd(workload, band, seed, mode="simulation")
            config = PowerConfig(
                pruning_threshold=workload.pruning_threshold,
                confidence_threshold=threshold,
                seed=seed,
            )
            resolver = PowerResolver(config)
            graph = resolver.build_graph(workload.table, workload.pairs)
            result = resolver.make_selector().run(graph, crowd.session())
            quality = pairwise_quality(result.matches, workload.gold)
            seed_rows.append((quality.f_measure, result.questions,
                              len(result.state.blue_vertices())))
        rows.append([
            dataset, threshold,
            sum(r[0] for r in seed_rows) / len(seed_rows),
            round(sum(r[1] for r in seed_rows) / len(seed_rows)),
            round(sum(r[2] for r in seed_rows) / len(seed_rows)),
        ])
    emit(f"Ablation: Power+ confidence threshold (band {band})",
         ["dataset", "threshold", "F1", "#questions", "#blue vertices"],
         rows, save_to)
    return rows


def histogram_sweep(
    bins: Sequence[int] = (5, 10, 20, 40),
    binnings: Sequence[str] = ("equi-depth", "equi-width"),
    dataset: str = "cora",
    band: str = "70",
    num_seeds: int = 2,
    save_to=None,
) -> list[list]:
    """Ablate the §6 histogram: bin count and equi-depth vs equi-width."""
    workload = prepare(dataset)
    rows = []
    for binning in binnings:
        for num_bins in bins:
            seed_rows = []
            for seed in _seeds(num_seeds):
                crowd = make_crowd(workload, band, seed, mode="simulation")
                config = PowerConfig(
                    pruning_threshold=workload.pruning_threshold,
                    num_bins=num_bins,
                    binning=binning,
                    seed=seed,
                )
                resolver = PowerResolver(config)
                graph = resolver.build_graph(workload.table, workload.pairs)
                result = resolver.make_selector().run(graph, crowd.session())
                quality = pairwise_quality(result.matches, workload.gold)
                seed_rows.append(quality.f_measure)
            rows.append([dataset, binning, num_bins,
                         sum(seed_rows) / len(seed_rows)])
    emit(f"Ablation: Power+ histogram binning (band {band})",
         ["dataset", "binning", "#bins", "F1"], rows, save_to)
    return rows


def path_cover_compare(
    dataset: str = "restaurant",
    epsilon: float = 0.1,
    band: str = "90",
    seed: int = 0,
    save_to=None,
) -> list[list]:
    """Matching-based Dilworth decomposition vs greedy chain peeling.

    The maximum matching guarantees the *minimal* number of paths (Theorem
    2); greedy peeling is cheaper per round but yields more, shorter paths
    and therefore more binary searches.
    """
    workload = prepare(dataset)
    base = PairGraph(workload.pairs, workload.vectors)
    grouped = GroupedGraph(base, split_grouping(workload.vectors, epsilon))
    rows = []
    for cover in ("matching", "greedy"):
        crowd = make_crowd(workload, band, seed, mode="real")
        selector = SinglePathSelector(seed=seed, cover=cover)
        result = selector.run(grouped, crowd.session())
        quality = pairwise_quality(
            {p for p, v in result.labels.items() if v}, workload.gold
        )
        rows.append([dataset, cover, quality.f_measure, result.questions,
                     result.assignment_time])
    emit("Ablation: path decomposition (SinglePath on grouped graph)",
         ["dataset", "cover", "F1", "#questions", "assign time (s)"],
         rows, save_to)
    return rows


def topo_layer_sweep(
    positions: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    dataset: str = "restaurant",
    band: str = "90",
    seed: int = 0,
    save_to=None,
) -> list[list]:
    """Ablate which topological level Power asks first.

    The paper argues for the middle level (§5.3.2): top levels are likely
    GREEN and bottom levels likely RED, so asking either end deduces little.
    """
    workload = prepare(dataset)
    base = PairGraph(workload.pairs, workload.vectors)
    grouped = GroupedGraph(base, split_grouping(workload.vectors, 0.1))
    rows = []
    for position in positions:
        crowd = make_crowd(workload, band, seed, mode="real")
        selector = TopoSortSelector(seed=seed, layer_position=position)
        result = selector.run(grouped, crowd.session())
        quality = pairwise_quality(
            {p for p, v in result.labels.items() if v}, workload.gold
        )
        rows.append([dataset, position, quality.f_measure,
                     result.questions, result.iterations])
    emit("Ablation: topological layer position (0 = top, 1 = bottom)",
         ["dataset", "position", "F1", "#questions", "#iterations"],
         rows, save_to)
    return rows


def aggregation_compare(
    dataset: str = "restaurant",
    band: str = "70",
    num_seeds: int = 2,
    save_to=None,
) -> list[list]:
    """Compare vote-aggregation schemes feeding Power+ (§6's "any other
    techniques can be integrated"): plain majority, oracle-accuracy-weighted
    majority, and log-odds weighting by gold-estimated accuracies.
    """
    from ..crowd import SimulatedCrowd, WorkerPool
    from ..crowd.quality import QualityAwareCrowd

    workload = prepare(dataset)
    gold = {
        (1_000_000 + i, 1_000_001 + i): bool(i % 2) for i in range(0, 80, 2)
    }
    rows = []
    for label in ("majority", "weighted", "quality-aware"):
        seed_rows = []
        for seed in _seeds(num_seeds):
            pool = WorkerPool(accuracy_range=band, seed=seed)
            if label == "quality-aware":
                crowd = QualityAwareCrowd(workload.truth, pool, gold=gold)
            else:
                crowd = SimulatedCrowd(workload.truth, pool, aggregation=label)
            seed_rows.append(run_method("power+", workload, crowd, seed=seed))
        row = average_rows(seed_rows)
        rows.append([dataset, label, row.f_measure, row.questions])
    emit(f"Ablation: vote aggregation under Power+ (band {band})",
         ["dataset", "aggregation", "F1", "#questions"], rows, save_to)
    return rows


def budget_curve(
    budgets=(0, 25, 50, 100, 200, None),
    dataset: str = "restaurant",
    band: str = "90",
    seed: int = 0,
    save_to=None,
) -> list[list]:
    """The anytime extension: quality as a function of the question budget.

    With budget 0 the histogram fallback is a pure machine classifier; each
    extra question buys partial-order inference on top.
    """
    from ..core import pairwise_quality
    from ..graph import GroupedGraph, PairGraph, split_grouping

    workload = prepare(dataset)
    base = PairGraph(workload.pairs, workload.vectors)
    grouped = GroupedGraph(base, split_grouping(workload.vectors, 0.1))
    rows = []
    for budget in budgets:
        crowd = make_crowd(workload, band, seed, mode="real")
        selector = TopoSortSelector(seed=seed)
        result = selector.run(grouped, crowd.session(), budget=budget)
        quality = pairwise_quality(
            {p for p, v in result.labels.items() if v}, workload.gold
        )
        rows.append([
            dataset, "unlimited" if budget is None else budget,
            result.questions, quality.f_measure,
        ])
    emit(f"Ablation: question budget vs quality (band {band})",
         ["dataset", "budget", "#questions", "F1"], rows, save_to)
    return rows


def index_dimensionality(
    dataset: str = "restaurant",
    size: int = 1500,
    save_to=None,
) -> list[list]:
    """2-D range tree + verification vs the full m-dimensional range tree.

    Quantifies the paper's footnote 5: indexing all attributes is correct
    but, at these dimensionalities, no faster than indexing two and
    verifying the rest.
    """
    import time as _time

    from ..graph import index_edges
    from ..graph.range_tree_nd import index_edges_nd

    workload = prepare(dataset)
    vectors = workload.vectors[:size]
    rows = []
    for label, algorithm in (("2d+verify", index_edges), ("full-nd", index_edges_nd)):
        started = _time.perf_counter()
        edges = algorithm(vectors)
        rows.append([dataset, size, label, round(_time.perf_counter() - started, 3),
                     len(edges)])
    emit("Ablation: index dimensionality (graph construction)",
         ["dataset", "#pairs", "index", "time (s)", "#edges"], rows, save_to)
    return rows


def incremental_compare(
    dataset: str = "restaurant",
    batch_sizes=(100, 200, 430),
    band: str = "90",
    save_to=None,
) -> list[list]:
    """Extension: streaming resolution vs one-shot, over the batch size.

    Smaller batches mean fresher results per arrival but more questions:
    each batch's graph cannot share boundary information with future pairs.
    """
    from ..core import PowerResolver
    from ..stream import stream_in_batches

    workload = prepare(dataset)
    config = PowerConfig(seed=0)
    one_shot = PowerResolver(config).resolve(workload.table, worker_band=band)
    rows = [[dataset, "one-shot", one_shot.questions,
             one_shot.iterations, one_shot.quality.f_measure]]
    for batch_size in batch_sizes:
        resolver = stream_in_batches(
            workload.table, batch_size=batch_size, config=config, worker_band=band
        )
        rows.append([
            dataset, f"stream/{batch_size}", resolver.total_questions,
            resolver.total_iterations, resolver.quality().f_measure,
        ])
    emit(f"Extension: incremental vs one-shot resolution (band {band})",
         ["dataset", "mode", "#questions", "#iterations", "F1"], rows, save_to)
    return rows


def spammer_sweep(
    fractions=(0.0, 0.2, 0.4),
    dataset: str = "restaurant",
    band: str = "90",
    num_seeds: int = 2,
    save_to=None,
) -> list[list]:
    """Extension: robustness to spammers under different aggregations.

    Replaces a growing fraction of an otherwise-good pool with random
    spammers and compares Power+ fed by plain majority voting vs the
    gold-estimated log-odds aggregation — the §2.2.2 "eliminating bad
    workers" scenario made concrete.
    """
    from ..crowd import SimulatedCrowd, WorkerPool
    from ..crowd.quality import QualityAwareCrowd

    workload = prepare(dataset)
    gold = {(1_000_000 + i, 1_000_001 + i): bool(i % 2) for i in range(0, 80, 2)}
    rows = []
    for fraction in fractions:
        for label in ("majority", "quality-aware"):
            seed_rows = []
            for seed in _seeds(num_seeds):
                pool = WorkerPool(
                    accuracy_range=band, seed=seed, spammer_fraction=fraction
                )
                if label == "quality-aware":
                    crowd = QualityAwareCrowd(workload.truth, pool, gold=gold)
                else:
                    crowd = SimulatedCrowd(workload.truth, pool, aggregation="majority")
                seed_rows.append(run_method("power+", workload, crowd, seed=seed))
            row = average_rows(seed_rows)
            rows.append([dataset, fraction, label, row.f_measure, row.questions])
    emit(f"Extension: spammer robustness (band {band} honest workers)",
         ["dataset", "spammer frac", "aggregation", "F1", "#questions"],
         rows, save_to)
    return rows


def extended_baselines(
    dataset: str = "restaurant",
    band: str = "80",
    num_seeds: int = 2,
    save_to=None,
) -> list[list]:
    """Extension: the full seven-way comparison.

    Adds CrowdER (ask everything — the cost ceiling) and node-priority
    transitivity (Vesdapunt et al. 2014) to the paper's five-method panel.
    """
    from ..baselines import CrowdERResolver, NodePriorityResolver

    workload = prepare(dataset)
    rows = []
    for seed in _seeds(num_seeds):
        crowd = make_crowd(workload, band, seed, mode="simulation")
        for method in ("power", "power+"):
            rows.append(run_method(method, workload, crowd, seed=seed))
        for resolver in (
            CrowdERResolver(),
            NodePriorityResolver(),
        ):
            result = resolver.run(workload.pairs, workload.scores, crowd.session())
            quality = pairwise_quality(result.matches, workload.gold)
            from .runner import MethodRow

            rows.append(MethodRow(
                method=result.name, dataset=dataset, band=band, seed=seed,
                f_measure=quality.f_measure, precision=quality.precision,
                recall=quality.recall, questions=result.questions,
                iterations=result.iterations, cost_cents=result.cost_cents,
                assignment_time=result.assignment_time,
            ))
        from .runner import run_method as _run

        for method in ("trans", "acd", "gcer"):
            rows.append(_run(method, workload, crowd, seed=seed))
    merged = {}
    for row in rows:
        merged.setdefault(row.method, []).append(row)
    table = []
    order = ["power", "power+", "trans", "node-priority", "gcer", "acd", "crowder"]
    for method in order:
        row = average_rows(merged[method])
        table.append([dataset, method, row.f_measure, row.questions, row.iterations])
    emit(f"Extension: seven-way comparison (band {band}, simulation workers)",
         ["dataset", "method", "F1", "#questions", "#iterations"],
         table, save_to)
    return table


def scalability_sweep(
    sizes=(500, 1000, 2000, 4000),
    dataset: str = "restaurant",
    band: str = "90",
    seed: int = 0,
    save_to=None,
) -> list[list]:
    """Extension: how Power's cost scales with the candidate-set size.

    The partial order's value grows with the graph: questions should grow
    clearly sub-linearly in the number of pairs (each answer colors a
    growing cone), which is what makes the method viable at ACMPub scale.
    """
    import time as _time

    rows = []
    for size in sizes:
        workload = prepare(dataset, max_pairs=size)
        if len(workload.pairs) < size:
            continue
        crowd = make_crowd(workload, band, seed, mode="real")
        started = _time.perf_counter()
        row = run_method("power", workload, crowd, seed=seed)
        elapsed = _time.perf_counter() - started
        rows.append([
            dataset, size, row.questions,
            round(row.questions / size, 4), row.f_measure, round(elapsed, 2),
        ])
    emit(f"Extension: Power cost scaling (band {band})",
         ["dataset", "#pairs", "#questions", "questions/pair", "F1", "time (s)"],
         rows, save_to)
    return rows


def latency_compare(
    dataset: str = "restaurant",
    band: str = "90",
    seed: int = 0,
    save_to=None,
) -> list[list]:
    """Extension: modeled wall-clock latency per selection algorithm.

    Converts each run's actual round structure (questions per crowd round)
    into wall-clock under :class:`repro.crowd.latency.LatencyModel` —
    the paper's iteration argument (Figs. 11/14) in minutes.
    """
    from ..baselines import CrowdERResolver, TransResolver
    from ..crowd.latency import LatencyModel
    from ..graph import GroupedGraph, PairGraph, split_grouping
    from ..selection import MultiPathSelector, SinglePathSelector, TopoSortSelector

    workload = prepare(dataset)
    base = PairGraph(workload.pairs, workload.vectors)
    grouped = GroupedGraph(base, split_grouping(workload.vectors, 0.1))
    crowd = make_crowd(workload, band, seed, mode="real")
    model = LatencyModel()
    rows = []
    for selector in (SinglePathSelector(seed=seed), MultiPathSelector(seed=seed),
                     TopoSortSelector(seed=seed)):
        session = crowd.session()
        result = selector.run(grouped, session)
        rows.append([
            dataset, result.name, result.questions, result.iterations,
            round(model.estimate_seconds(session.batch_sizes) / 60, 1),
        ])
    for resolver in (TransResolver(), CrowdERResolver()):
        session = crowd.session()
        result = resolver.run(workload.pairs, workload.scores, session)
        rows.append([
            dataset, result.name, result.questions, result.iterations,
            round(model.estimate_seconds(session.batch_sizes) / 60, 1),
        ])
    emit(f"Extension: modeled wall-clock latency (band {band})",
         ["dataset", "method", "#questions", "#iterations", "est. minutes"],
         rows, save_to)
    return rows


def fault_sweep(
    rates: Sequence[float] = (0.0, 0.1, 0.25),
    dataset: str = "restaurant",
    band: str = "90",
    seed: int = 0,
    methods: Sequence[str] = ("power", "power+", "trans", "gcer"),
    telemetry_dir: str = "benchmarks/results",
    save_to=None,
) -> list[list]:
    """Extension: Power vs. baselines on a faulty crowd platform.

    Drives every method through the :mod:`repro.engine` orchestration
    runtime while a one-knob fault profile (worker no-shows, abandonment,
    straggler tails, spam bursts — :meth:`FaultProfile.scaled`) degrades
    the platform.  Reported per (rate, method): F1, questions, total spend
    including the re-post surcharge, simulated wall clock, re-posts and
    expired HITs.  At rate 0 the engine is provably inert, so that column
    doubles as a regression check against the synchronous numbers; as the
    rate grows, the cost gap between few-question methods (Power) and
    question-hungry baselines *widens*, because every extra question is
    another lottery ticket on the fault distribution.
    """
    import json as _json
    from pathlib import Path as _Path

    from ..engine import CrowdEngine, EngineConfig, FaultProfile

    workload = prepare(dataset)
    if fast_mode():
        rates = tuple(rates)[:2]
        methods = tuple(methods)[:2]
    rows = []
    telemetry_out: dict[str, dict] = {}
    for rate in rates:
        profile = FaultProfile.scaled(rate) if rate > 0 else FaultProfile()
        # One shared platform per fault level (the paper's §7.1 protocol:
        # algorithms asking the same pair observe the same answer).
        crowd = make_crowd(workload, band, seed, mode="simulation")
        for method in methods:
            engine = CrowdEngine(
                EngineConfig(faults=profile, seed=seed, event_log_limit=25)
            )
            row = run_method(method, workload, crowd, seed=seed, engine=engine)
            telemetry = engine.telemetry
            rows.append([
                dataset, rate, method, row.f_measure, row.questions,
                round(telemetry.total_spent_cents),
                round(telemetry.wall_clock_seconds / 60, 1),
                telemetry.re_posts, telemetry.expired,
            ])
            report = telemetry.as_dict()
            report.pop("recent_events", None)
            telemetry_out[f"{method}@rate={rate:g}"] = report
    if telemetry_dir is not None:
        out_path = _Path(telemetry_dir) / "ENGINE_fault_sweep.json"
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(
            _json.dumps(
                {"dataset": dataset, "band": band, "seed": seed,
                 "runs": telemetry_out},
                indent=2,
            ) + "\n",
            encoding="utf-8",
        )
    emit(f"Extension: fault-injection panel (band {band}, engine runtime)",
         ["dataset", "fault rate", "method", "F1", "#questions",
          "spent (cents)", "wall clock (min)", "#re-posts", "#expired"],
         rows, save_to)
    return rows


def assignment_compare(
    dataset: str = "restaurant",
    band=(0.55, 0.98),
    seed: int = 0,
    save_to=None,
) -> list[list]:
    """Extension: question-to-worker assignment policies under Power+.

    A mixed-quality pool (0.55-0.98) makes routing matter: quality-aware
    assignment (best estimated workers, load-capped) should beat random and
    round-robin — the §2.2.2 "assigning questions to appropriate workers"
    idea, end to end.
    """
    from ..crowd import (
        AssigningCrowd,
        BestWorkerAssignment,
        RandomAssignment,
        RoundRobinAssignment,
        WorkerPool,
    )
    from ..crowd.quality import estimate_accuracy_from_gold

    workload = prepare(dataset)
    gold = {(1_000_000 + i, 1_000_001 + i): bool(i % 2) for i in range(0, 80, 2)}
    pool = WorkerPool(size=40, accuracy_range=band, seed=seed)
    estimates = {
        w.worker_id: estimate_accuracy_from_gold(w, gold) for w in pool.workers
    }
    rows = []
    for label, policy in (
        ("random", RandomAssignment()),
        ("round-robin", RoundRobinAssignment()),
        ("best-worker", BestWorkerAssignment(estimates, max_load_share=0.2)),
    ):
        crowd = AssigningCrowd(workload.truth, pool, policy)
        row = run_method("power+", workload, crowd, seed=seed)
        rows.append([dataset, label, row.f_measure, row.questions])
    emit("Extension: assignment policies (mixed 0.55-0.98 pool, Power+)",
         ["dataset", "policy", "F1", "#questions"], rows, save_to)
    return rows
