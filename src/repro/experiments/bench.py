"""The gated benches: one registry, one runner, one report, one gate.

Five benches protect the paper's costly stages and the layers built on
them.  Each times a *reference* side against a *fast* side (or one mode
against another), checks that the sides agree while it measures, and
gates the ratio of their medians:

=========  ======================================================  ==========
bench      sides                                                   full bars
=========  ======================================================  ==========
pipeline   §7.1 prune: prefix-join oracle vs. sparse join;         5x, 3x
           §3.1 vectorize: scalar vs. batch vectors;
           §4 construct: per-node Split + tile lists vs. the
           resolve's build_graph + reachability index
selection  §5 selection loop on a graph holding the reference      3x each
           relation vs. the incremental engine, for single-path
           and multi-path
obs        one resolve with observability off vs. metrics vs.      1%, 5%
           tracing+metrics (ceilings on the overhead)
stream     re-resolve the growing prefix per batch vs. stream the  3x
           batches through one :class:`~repro.stream.StreamingResolver`
serve      1 vs. 8 vs. 32 concurrent sessions over real sockets    3x
           (aggregate throughput)
=========  ======================================================  ==========

:func:`measure` is the only timer: it runs every side once untimed (caches
fill and lazy set-up finishes, so no side is timed cold while another
reads what it left behind), then times *repeats* rounds in which the order
of the sides rotates, and keeps each side's every run and last result.
Whatever a side's set-up does outside its timer — building selection
graphs and the reference relation's lists, constructing the stream's resolver,
starting and draining a server, clearing the tokenizer caches so the
pipeline's sides run cold — happens in :attr:`Side.prepare`, untimed.

:func:`run` wraps a bench's outcome in the one report schema: ``benchmark``,
``fast_mode``, ``python``, ``numpy``, ``workload``, ``sides`` (median,
quartiles and every run, in seconds), ``ratios`` (two sides' medians per
unit of work, with a ``floor`` or a ``ceiling``), ``checks`` (named
booleans) and bench-specific ``details``.  :func:`failures` is the one
gate, :func:`table` the one console table and :func:`write` the one
writer.  ``POWER_BENCH_FAST=1`` picks each bench's smoke size: a smaller
workload and relaxed ratio bars (sub-second sides make ratios noisy);
checks are never relaxed.  ``python -m repro bench NAME [--check] [--out
PATH]`` runs one bench; the committed full runs live in
``benchmarks/results/BENCH_<name>.json``.
"""

from __future__ import annotations

import asyncio
import functools
import json
import platform
import statistics
import tempfile
from collections.abc import Callable, Sequence
from contextlib import AbstractContextManager, contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

from ..core import PowerConfig, PowerResolver
from ..crowd.platform import PerfectCrowd
from ..data import acmpub, synthesize
from ..data.perturb import LIGHT_PERTURBATIONS
from ..data.table import Table
from ..data.vocab import CITIES, CUISINES, RESTAURANT_NAME_HEADS
from ..graph.dag import PairGraph
from ..graph.grouped_graph import GroupedGraph, build_graph
from ..obs import Observability, activated, structure, walk
from ..selection import SELECTORS
from ..serve import PROTOCOL_VERSION, AsyncServeClient, ResolutionServer, ServeApp
from ..similarity import (
    SimilarityConfig,
    batch_similarity_matrix,
    similar_pairs,
    similarity_matrix,
)
from ..similarity.tokenize import qgram_tokens, word_tokens
from ..stream import StreamingResolver
from ..verify.oracles import (
    _pair_truth_from_vertices,
    monotone_truth,
    prefix_join,
    reference_split_grouping,
)
from ..verify.relation import decline_reachability, reference_relation
from .reporting import format_table
from .runner import fast_mode

# --------------------------------------------------------------------------- #
# The harness
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Side:
    """One timed side of a bench.

    ``prepare()`` returns a context manager: entering it does the side's
    untimed set-up and yields the zero-argument call that :func:`measure`
    times; leaving it, also untimed, releases what the set-up made.
    ``units`` is the work one call does, so ratios compare seconds per
    unit.
    """

    name: str
    prepare: Callable[[], AbstractContextManager[Callable[[], Any]]]
    units: int = 1

    @classmethod
    def plain(cls, name: str, call: Callable[[], Any]) -> Side:
        """A side with no untimed set-up."""
        return cls(name, lambda: nullcontext(call))


@dataclass
class Timing:
    """Every timed run of one side, and the result of its last call."""

    runs: list[float]
    result: Any
    units: int = 1

    @property
    def median(self) -> float:
        return float(np.median(self.runs))

    def as_dict(self) -> dict[str, Any]:
        low, high = np.percentile(self.runs, [25, 75])
        return {
            "seconds": self.median,
            "quartiles": [float(low), float(high)],
            "runs": list(self.runs),
            "units": self.units,
        }


@dataclass(frozen=True)
class Ratio:
    """A gate on two sides: *numerator*'s median seconds per unit over
    *denominator*'s, which must reach *floor* and stay within *ceiling*."""

    numerator: str
    denominator: str
    floor: float | None = None
    ceiling: float | None = None


@dataclass
class Outcome:
    """What a bench hands back to :func:`run`."""

    timings: dict[str, Timing]
    ratios: dict[str, Ratio]
    checks: dict[str, bool]
    details: dict[str, Any]


@dataclass(frozen=True)
class Size:
    """One size of a bench: its workload and its ratio bars by name."""

    workload: dict[str, Any]
    bars: dict[str, float]


@dataclass(frozen=True)
class Bench:
    """A named bench: ``run(workload, bars)`` at a full and a smoke size."""

    run: Callable[[dict[str, Any], dict[str, float]], Outcome]
    full: Size
    smoke: Size


def _call(side: Side) -> tuple[float, Any]:
    with side.prepare() as call:
        started = perf_counter()
        result = call()
        return perf_counter() - started, result


def measure(sides: Sequence[Side], repeats: int) -> dict[str, Timing]:
    """Time *sides*: each once untimed, then *repeats* interleaved rounds.

    Round ``r`` starts with side ``r`` (mod the number of sides) and goes
    round in order, so no side always runs first.
    """
    results = {side.name: _call(side)[1] for side in sides}
    runs: dict[str, list[float]] = {side.name: [] for side in sides}
    for index in range(repeats):
        shift = index % len(sides)
        for side in [*sides[shift:], *sides[:shift]]:
            seconds, results[side.name] = _call(side)
            runs[side.name].append(seconds)
    return {
        side.name: Timing(runs[side.name], results[side.name], side.units)
        for side in sides
    }


def _ratio(ratio: Ratio, timings: dict[str, Timing]) -> dict[str, Any]:
    numerator, denominator = timings[ratio.numerator], timings[ratio.denominator]
    return {
        "numerator": ratio.numerator,
        "denominator": ratio.denominator,
        "value": (numerator.median / numerator.units)
        / (denominator.median / denominator.units),
        "floor": ratio.floor,
        "ceiling": ratio.ceiling,
    }


def run(name: str) -> dict[str, Any]:
    """Run the bench *name* at the size ``POWER_BENCH_FAST`` picks."""
    bench = BENCHES[name]
    fast = fast_mode()
    size = bench.smoke if fast else bench.full
    outcome = bench.run(size.workload, size.bars)
    return {
        "benchmark": name,
        "fast_mode": fast,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": size.workload,
        "sides": {side: timing.as_dict() for side, timing in outcome.timings.items()},
        "ratios": {
            ratio: _ratio(spec, outcome.timings) for ratio, spec in outcome.ratios.items()
        },
        "checks": {check: bool(passed) for check, passed in outcome.checks.items()},
        "details": outcome.details,
    }


def _gates(report: dict[str, Any]) -> list[tuple[str, str, str, str | None]]:
    """``(name, value, bar, failure or None)`` for every ratio and check."""
    gates = []
    for name, ratio in report["ratios"].items():
        value, floor, ceiling = ratio["value"], ratio["floor"], ratio["ceiling"]
        sides = f"{ratio['numerator']} / {ratio['denominator']}"
        failure = bar = None
        if floor is not None:
            bar = f">= {floor}x"
            if value < floor:
                failure = f"{name}: {value:.3f}x ({sides}) is below the {floor}x floor"
        if ceiling is not None:
            bar = f"<= {ceiling}x"
            if value > ceiling:
                failure = f"{name}: {value:.3f}x ({sides}) is above the {ceiling}x ceiling"
        gates.append((name, f"{value:.3f}x", bar or "--", failure))
    for name, passed in report["checks"].items():
        gates.append(
            (name, "yes" if passed else "NO", "check", None if passed else f"{name}: check failed")
        )
    return gates


def failures(report: dict[str, Any]) -> list[str]:
    """Every gate *report* fails, one sentence each (empty: it passed)."""
    return [failure for *_, failure in _gates(report) if failure]


def table(report: dict[str, Any]) -> str:
    """The console summary of *report*: its sides, then its gates."""
    size = "smoke" if report["fast_mode"] else "full"
    sides = [
        [name, f"{side['seconds']:.4f}",
         "{:.4f} - {:.4f}".format(*side["quartiles"]), len(side["runs"])]
        for name, side in report["sides"].items()
    ]
    gates = [
        [name, value, bar, "FAIL" if failure else "ok"]
        for name, value, bar, failure in _gates(report)
    ]
    return format_table(
        f"{report['benchmark']} bench ({size} run)",
        ("side", "median s", "quartiles s", "runs"),
        sides,
    ) + format_table("gates", ("gate", "value", "bar", "result"), gates)


def write(report: dict[str, Any], path: str | Path) -> Path:
    """Write *report* as pretty-printed JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


# --------------------------------------------------------------------------- #
# pipeline: prune -> vectorize -> construct, reference vs. fast path
# --------------------------------------------------------------------------- #


@contextmanager
def _cold(call: Callable[[], Any]):
    """Yield *call* after clearing the tokenizer caches, so it runs cold."""
    word_tokens.cache_clear()
    qgram_tokens.cache_clear()
    yield call


def _most_similar(vectors: np.ndarray, cap: int) -> np.ndarray:
    """Row indices of the *cap* rows of highest mean similarity, in order."""
    keep = np.argsort(-vectors.mean(axis=1), kind="stable")[:cap]
    keep.sort()
    return keep


def _pipeline(workload: dict[str, Any], bars: dict[str, float]) -> Outcome:
    """Each stage's scalar reference against what a resolve runs.

    The stages' inputs are computed once, untimed: the vectorize and
    construct sides read the join's pairs and their vectors.  The
    construct stage's fast side is a resolve's: ``build_graph`` (Split
    grouping at ``epsilon``) and the grouped graph's reachability index.
    Its reference groups with the per-node Split and cuts the children
    lists from the dominance tiles over the same bounds; every index row
    must equal its list.
    """
    table = acmpub(scale=workload["scale"])
    threshold = workload["threshold"]
    epsilon = workload["epsilon"]
    config = SimilarityConfig.uniform(table.num_attributes, function=workload["similarity"])
    pairs = similar_pairs(table, threshold)
    vectors = batch_similarity_matrix(table, pairs, config)

    def prune_reference():
        token_sets = [word_tokens(table.record_text(r.record_id)) for r in table]
        return sorted(prefix_join(token_sets, threshold))

    def construct_reference():
        graph = GroupedGraph(PairGraph(pairs, vectors), reference_split_grouping(vectors, epsilon))
        return reference_relation(graph).lists

    def construct_fast():
        graph = build_graph(pairs, vectors, epsilon)
        return graph.reachability

    calls = {
        "prune.reference": prune_reference,
        "prune.fast": lambda: similar_pairs(table, threshold),
        "vectorize.reference": lambda: similarity_matrix(table, pairs, config),
        "vectorize.fast": lambda: batch_similarity_matrix(table, pairs, config),
        "construct.reference": construct_reference,
        "construct.fast": construct_fast,
    }
    timings = measure(
        [Side(name, functools.partial(_cold, call)) for name, call in calls.items()],
        workload["repeats"],
    )
    result = {name: timing.result for name, timing in timings.items()}
    index, lists = result["construct.fast"], result["construct.reference"]
    difference = np.abs(result["vectorize.reference"] - result["vectorize.fast"])
    return Outcome(
        timings,
        ratios={
            stage: Ratio(f"{stage}.reference", f"{stage}.fast", floor=bars.get(stage))
            for stage in ("prune", "vectorize", "construct")
        },
        checks={
            "prune.equivalent": result["prune.fast"] == result["prune.reference"],
            "vectorize.bit_identical": np.array_equal(
                result["vectorize.reference"], result["vectorize.fast"]
            ),
            "construct.index_rows_equal_tile_lists": index.num_vertices == len(lists)
            and all(np.array_equal(index.descendants(v), row) for v, row in enumerate(lists)),
        },
        details={
            "records": len(table),
            "attributes": table.num_attributes,
            "pairs": len(pairs),
            "max_abs_diff": float(difference.max()) if difference.size else 0.0,
            "groups": len(lists),
            "edges": int(sum(len(row) for row in lists)),
        },
    )


# --------------------------------------------------------------------------- #
# selection: incremental engine vs. per-round scratch
# --------------------------------------------------------------------------- #


@contextmanager
def _selection_run(name, pairs, vectors, truth, seed, incremental):
    """One selector run on a fresh graph, set up outside the timer.

    The incremental side pays its reachability-index build inside the
    timer.  The scratch side runs on a graph holding the reference relation
    (:func:`~repro.verify.relation.decline_reachability`), whose tile
    lists are built here.
    """
    graph = PairGraph(pairs, vectors)
    if not incremental:
        decline_reachability(graph)
    selector = SELECTORS[name](seed=seed)
    session = PerfectCrowd(truth).session()
    yield lambda: selector.run(graph, session)


def _selection_sides(name: str, pairs, vectors, seed: int) -> list[Side]:
    truth = _pair_truth_from_vertices(pairs, monotone_truth(vectors))
    return [
        Side(
            f"{name}.{side}",
            functools.partial(
                _selection_run, name, pairs, vectors, truth, seed, side == "incremental"
            ),
        )
        for side in ("scratch", "incremental")
    ]


#: The selection spans whose seconds the selection bench splits a run into.
_SELECTION_PHASES = ("build_reachability", "cover", "augment", "ask", "propagate", "settle")


def _phase_splits(name, pairs, vectors, truth, seed) -> dict[str, float]:
    """Seconds per phase of one traced, untimed incremental run.

    Each phase sums its ``selection.<phase>`` spans (``augment`` is part
    of ``cover``); ``round_unspanned`` is the part of the rounds that no
    child span covers.
    """
    with _selection_run(name, pairs, vectors, truth, seed, True) as call:
        with activated(Observability(tracing=True, metrics=False)) as obs:
            call()
    spans = [span for _, span in walk(obs.tracer.export())]

    def seconds(span_name):
        return sum(span["wall_seconds"] for span in spans if span["name"] == span_name)

    splits = {phase: seconds(f"selection.{phase}") for phase in _SELECTION_PHASES}
    splits["round_unspanned"] = seconds("selection.round") - sum(
        seconds(f"selection.{phase}") for phase in ("cover", "ask", "propagate")
    )
    return splits


def _selection(workload: dict[str, Any], bars: dict[str, float]) -> Outcome:
    """The full ask/color loop against a perfect crowd over a monotone truth.

    Each selector runs on the same dominance graph of the ACMPub pairs of
    highest mean similarity, with the incremental engine and on the
    scratch reference paths; both must ask the same vertices in the same
    order and end with the same coloring.  The details keep each
    selector's phase splits, read from the span tree of one more traced,
    untimed incremental run, and a rounds-vs-n sweep of the single-path
    engine (one timed run per side and size).
    """
    table = acmpub(scale=workload["scale"])
    pairs = similar_pairs(table, workload["threshold"])
    config = SimilarityConfig.uniform(table.num_attributes, function="bigram")
    vectors = batch_similarity_matrix(table, pairs, config)
    keep = _most_similar(vectors, workload["max_vertices"])
    pairs, vectors = [pairs[int(i)] for i in keep], vectors[keep]
    seed = workload["seed"]
    timings = measure(
        [
            side
            for name in workload["selectors"]
            for side in _selection_sides(name, pairs, vectors, seed)
        ],
        workload["repeats"],
    )

    truth = _pair_truth_from_vertices(pairs, monotone_truth(vectors))
    checks, selectors = {}, {}
    for name in workload["selectors"]:
        scratch = timings[f"{name}.scratch"].result
        incremental = timings[f"{name}.incremental"].result
        checks[f"{name}.equivalent"] = (
            incremental.state.asked_order == scratch.state.asked_order
            and np.array_equal(incremental.state.colors, scratch.state.colors)
            and incremental.labels == scratch.labels
        )
        checks[f"{name}.incremental_uses_index"] = incremental.extras["selection"][
            "incremental"
        ]
        checks[f"{name}.scratch_declines_index"] = not scratch.extras["selection"][
            "incremental"
        ]
        telemetry = incremental.extras["selection"]
        selectors[name] = {
            "rounds": telemetry["rounds"],
            "questions": incremental.questions,
            "splits": _phase_splits(name, pairs, vectors, truth, seed),
            "engine": telemetry.get("engine", {}),
        }

    scaling = []
    for fraction in workload["scaling"]:
        size = max(2, int(round(len(pairs) * fraction)))
        sweep = measure(
            _selection_sides("single-path", pairs[:size], vectors[:size], seed), 1
        )
        scratch, incremental = sweep["single-path.scratch"], sweep["single-path.incremental"]
        scaling.append(
            {
                "vertices": size,
                "rounds": incremental.result.extras["selection"]["rounds"],
                "scratch_seconds": scratch.median,
                "incremental_seconds": incremental.median,
            }
        )

    return Outcome(
        timings,
        ratios={
            name: Ratio(f"{name}.scratch", f"{name}.incremental", floor=bars.get(name))
            for name in workload["selectors"]
        },
        checks=checks,
        details={
            "records": len(table),
            "vertices": len(pairs),
            "attributes": int(vectors.shape[1]),
            "selectors": selectors,
            "scaling": scaling,
        },
    )


# --------------------------------------------------------------------------- #
# obs: the cost of watching one resolve
# --------------------------------------------------------------------------- #


def _fingerprint(result) -> tuple:
    """Everything the transparency contract says must not move."""
    return (
        result.questions,
        result.iterations,
        result.cost_cents,
        tuple(sorted(result.matches)),
        tuple(tuple(sorted(c)) for c in sorted(result.clusters)),
    )


def _obs(workload: dict[str, Any], bars: dict[str, float]) -> Outcome:
    """One full resolve (join to cluster, simulated crowd included) with
    observability off (every hook costs an attribute check), with metrics
    only, and with spans and metrics (``--trace --metrics-out``).

    Results must be identical in all three modes.  The ``overhead_pct``
    detail is each mode's ratio of medians to the baseline, minus 1,
    signed: a negative overhead is noise and is reported as measured.
    """
    table = acmpub(scale=workload["scale"])
    config = PowerConfig(seed=workload["seed"], pruning_threshold=workload["threshold"])

    def resolve(tracing: bool | None = None):
        resolver = PowerResolver(config)
        if tracing is None:
            return resolver.resolve(table, worker_band=workload["worker_band"]), None
        with activated(Observability(tracing=tracing, metrics=True)) as obs:
            return resolver.resolve(table, worker_band=workload["worker_band"]), obs

    timings = measure(
        [
            Side.plain("baseline", resolve),
            Side.plain("metrics", lambda: resolve(tracing=False)),
            Side.plain("tracing", lambda: resolve(tracing=True)),
        ],
        workload["repeats"],
    )
    (baseline, _), (metrics, metrics_obs), (traced, traced_obs) = (
        timings[mode].result for mode in ("baseline", "metrics", "tracing")
    )
    spans = structure(traced_obs.tracer.export())
    modes = ("metrics", "tracing")
    return Outcome(
        timings,
        ratios={mode: Ratio(mode, "baseline", ceiling=bars.get(mode)) for mode in modes},
        checks={
            "equivalent": _fingerprint(baseline)
            == _fingerprint(metrics)
            == _fingerprint(traced),
            "tracing.spans_recorded": len(spans) > 0,
        },
        details={
            "records": len(table),
            "overhead_pct": {
                mode: (timings[mode].median / timings["baseline"].median - 1) * 100
                for mode in modes
            },
            "spans": len(spans),
            "metrics_recorded": {
                "metrics": len(metrics_obs.registry),
                "tracing": len(traced_obs.registry),
            },
        },
    )


# --------------------------------------------------------------------------- #
# stream: incremental ingest vs. re-resolve per batch
# --------------------------------------------------------------------------- #


def _stream_stages(ingest: Callable[[], Any]) -> tuple[dict[str, float], float]:
    """Seconds per stage region (the ``resolve.<stage>`` children of each
    ``stream.batch`` span) of one traced, untimed ingest, and the share of
    the batch spans those regions cover."""
    with activated(Observability(tracing=True, metrics=False)) as obs:
        ingest()
    batches = [span for _, span in walk(obs.tracer.export()) if span["name"] == "stream.batch"]
    stages: dict[str, float] = {}
    for child in (child for batch in batches for child in batch["children"]):
        stage = child["name"].removeprefix("resolve.")
        stages[stage] = stages.get(stage, 0.0) + child["wall_seconds"]
    return stages, sum(stages.values()) / sum(span["wall_seconds"] for span in batches)


def _stream(workload: dict[str, Any], bars: dict[str, float]) -> Outcome:
    """Stream B batches through one :class:`StreamingResolver` (its join
    is extended per batch, so only new-by-old and new-by-new candidate
    pairs are found and resolved) against the naive service, which
    re-resolves the whole growing prefix with :class:`PowerResolver`
    after every batch.

    The stream must decide exactly the pair universe of the final one-shot
    join.  The resolver is built outside the timer.  ``join_seconds`` sums
    the last timed stream's per-batch candidate-join seconds.  After the
    timed sides, one more traced, untimed ingest splits the batches into
    their stage regions (``stage_seconds``); the ``stages_cover_batches``
    check wants those regions to cover at least 95% of the ``stream.batch``
    spans.
    """
    table = acmpub(scale=workload["scale"])
    records = table.records[: workload["records"]]
    batch_size = workload["batch_size"]
    chunks = [records[start : start + batch_size] for start in range(0, len(records), batch_size)]
    config = PowerConfig(seed=workload["seed"], pruning_threshold=workload["threshold"])
    band = workload["worker_band"]

    @contextmanager
    def stream():
        service = StreamingResolver(
            table.attributes, config=config, name="bench-stream", worker_band=band
        )

        def ingest():
            for chunk in chunks:
                service.add_batch(
                    [record.values for record in chunk],
                    entity_ids=[record.entity_id for record in chunk],
                )
            return service

        yield ingest

    def reresolve():
        final = None
        for end in range(batch_size, len(records) + batch_size, batch_size):
            prefix = Table(name="bench-prefix", attributes=tuple(table.attributes))
            for record in records[: min(end, len(records))]:
                prefix.append(record.values, entity_id=record.entity_id)
            final = PowerResolver(config).resolve(prefix, worker_band=band)
        return final

    timings = measure([Side("stream", stream), Side.plain("reresolve", reresolve)],
                      workload["repeats"])
    streamed, final = timings["stream"].result, timings["reresolve"].result
    with stream() as ingest:
        stages, covered = _stream_stages(ingest)
    return Outcome(
        timings,
        ratios={
            "ingest_vs_reresolve": Ratio(
                "reresolve", "stream", floor=bars.get("ingest_vs_reresolve")
            )
        },
        checks={
            "stream_universe_equals_one_shot_join": set(streamed.labels)
            == set(final.candidate_pairs),
            "stages_cover_batches": covered >= 0.95,
        },
        details={
            "records": len(records),
            "batches": len(chunks),
            "join_seconds": sum(report["join_seconds"] for report in streamed.reports),
            "questions": streamed.total_questions,
            "pairs_decided": len(streamed.labels),
            "clusters": len(streamed.clusters()),
            "pooled_cost_cents": streamed.cost_cents,
            "stage_seconds": stages,
            "stage_coverage": covered,
        },
    )


# --------------------------------------------------------------------------- #
# serve: concurrent tenants must pay while correctness holds
# --------------------------------------------------------------------------- #

_SERVE_ATTRIBUTES = ("name", "city", "cuisine")

#: The pipelined burst thrown at the ``queue_depth=2`` shedding server.
_SHED_BURST = 6


def _restaurant(rng):
    name = RESTAURANT_NAME_HEADS[int(rng.integers(0, len(RESTAURANT_NAME_HEADS)))]
    return (
        f"{name} house",
        CITIES[int(rng.integers(0, len(CITIES)))],
        CUISINES[int(rng.integers(0, len(CUISINES)))],
    )


def _rows(chunk):
    return [list(record.values) for record in chunk]


def _ids(chunk):
    return [record.entity_id for record in chunk]


def _direct_sha(root: Path, name: str, chunks, workload) -> str:
    resolver = StreamingResolver(
        _SERVE_ATTRIBUTES,
        config=PowerConfig(seed=workload["seed"]),
        name=name,
        worker_band=workload["worker_band"],
        checkpoint_dir=root / f"direct-{name}",
    )
    for chunk in chunks:
        resolver.add_batch(_rows(chunk), entity_ids=_ids(chunk))
    sha = resolver.checkpoint()["state_sha"]
    resolver.close()
    return sha


async def _drive_sessions(port: int, concurrency: int, chunks, worker_band: str):
    """Every session of one phase, each over its own connection."""
    latencies: list[float] = []

    async def drive(index: int):
        name = f"s{index}"
        async with AsyncServeClient(port=port) as client:
            await client.create_session(name, list(_SERVE_ATTRIBUTES), worker_band=worker_band)
            for chunk in chunks:
                started = perf_counter()
                await client.ingest_with_retry(name, _rows(chunk), _ids(chunk))
                latencies.append(perf_counter() - started)
            record = await client.checkpoint(name)
            await client.close_session(name)
        return name, record["state_sha"]

    shas = dict(await asyncio.gather(*(drive(index) for index in range(concurrency))))
    return shas, latencies


@contextmanager
def _serve_phase(root: Path, concurrency: int, chunks, workload):
    """A fresh server for one run of a phase; yields the timed drive.

    The crowd round-trip is modelled by ``crowd_latency`` (an asyncio
    sleep after each batch's compute: timing only, never state), which is
    what concurrency can reclaim.
    """
    loop = asyncio.new_event_loop()
    app = ServeApp(
        tempfile.mkdtemp(prefix=f"phase-{concurrency}-", dir=root),
        max_sessions=concurrency,
        queue_depth=8,
        crowd_latency=workload["crowd_latency"],
    )
    server = ResolutionServer(app)
    try:
        loop.run_until_complete(server.start())
        yield lambda: loop.run_until_complete(
            _drive_sessions(server.port, concurrency, chunks, workload["worker_band"])
        )
    finally:
        loop.run_until_complete(server.stop())
        loop.run_until_complete(app.drain())
        loop.run_until_complete(loop.shutdown_asyncgens())
        loop.close()


async def _shedding_phase(root: Path, chunks, crowd_latency: float) -> dict[str, Any]:
    """A pipelined over-provisioned burst against a ``queue_depth=2`` server."""
    app = ServeApp(
        root / "shed", max_sessions=2, queue_depth=2, crowd_latency=max(crowd_latency, 0.2)
    )
    burst = chunks[0]
    async with ResolutionServer(app) as server:
        async with AsyncServeClient(port=server.port) as client:
            await client.create_session("shed", list(_SERVE_ATTRIBUTES))
            responses = await asyncio.gather(
                *(
                    client.request(
                        "ingest", session="shed", rows=_rows(burst), entity_ids=_ids(burst)
                    )
                    for _ in range(_SHED_BURST)
                )
            )
            health = await client.healthz()
            recorded = (await client.query_clusters("shed"))["batches"]
    await app.drain()
    shed = [response for response in responses if not response["ok"]]
    admitted = len(responses) - len(shed)
    return {
        "burst": _SHED_BURST,
        "queue_depth": 2,
        "admitted": admitted,
        "shed": len(shed),
        "all_sheds_priced": all(
            r.get("error") == "overloaded" and r.get("retry_after", 0) > 0 for r in shed
        ),
        "no_hard_errors": all(r["ok"] or r.get("error") == "overloaded" for r in responses),
        "healthz_ok": health["status"] == "ok" and health["protocol"] == PROTOCOL_VERSION,
        "recorded_equals_admitted": recorded == admitted,
    }


def _serve(workload: dict[str, Any], bars: dict[str, float]) -> Outcome:
    """The same per-session workload through a live
    :class:`~repro.serve.ResolutionServer` at each fan-out, each session
    driven by its own socket client.

    Each phase is a side whose unit is a batch, so the ratio of the
    single-session phase to the top fan-out is the aggregate-throughput
    scaling.  Every session's final ``state_sha`` must equal a direct
    serial :class:`StreamingResolver` run of the same name (the reference
    runs happen before any phase, untimed).  A shedding burst must be
    refused with priced ``retry_after`` answers, leave the server healthy,
    and leave the session holding exactly the admitted batches.
    """
    records = workload["records"]
    table = synthesize(
        name="serve-load",
        attributes=_SERVE_ATTRIBUTES,
        entity_factory=_restaurant,
        num_entities=max(2, int(records * 0.6)),
        num_records=records,
        seed=99,
        intensity=0.4,
        pool=LIGHT_PERTURBATIONS,
    )
    rows = list(table)
    batch_size = workload["batch_size"]
    chunks = [rows[start : start + batch_size] for start in range(0, len(rows), batch_size)]
    concurrencies = workload["concurrencies"]
    phases = {concurrency: f"sessions={concurrency}" for concurrency in concurrencies}
    with tempfile.TemporaryDirectory(prefix="bench-serve-") as scratch:
        root = Path(scratch)
        references = {
            f"s{index}": _direct_sha(root, f"s{index}", chunks, workload)
            for index in range(max(concurrencies))
        }
        timings = measure(
            [
                Side(
                    side,
                    functools.partial(_serve_phase, root, concurrency, chunks, workload),
                    units=concurrency * len(chunks),
                )
                for concurrency, side in phases.items()
            ],
            workload["repeats"],
        )
        shedding = asyncio.run(_shedding_phase(root, chunks, workload["crowd_latency"]))

    checks, latencies = {}, {}
    for concurrency, side in phases.items():
        shas, waits = timings[side].result
        checks[f"{side}.bit_identical"] = all(
            shas[name] == references[name] for name in shas
        ) and len(shas) == concurrency
        waits = sorted(waits)
        latencies[side] = {
            "p50_seconds": statistics.median(waits),
            "p99_seconds": waits[min(len(waits) - 1, int(len(waits) * 0.99))],
        }
    checks["shed.refused_some"] = shedding["shed"] > 0
    for key in ("all_sheds_priced", "no_hard_errors", "healthz_ok", "recorded_equals_admitted"):
        checks[f"shed.{key}"] = shedding[key]
    return Outcome(
        timings,
        ratios={
            "max_vs_single_throughput": Ratio(
                phases[concurrencies[0]],
                phases[concurrencies[-1]],
                floor=bars.get("max_vs_single_throughput"),
            )
        },
        checks=checks,
        details={
            "batches_per_session": len(chunks),
            "latencies": latencies,
            "shedding": shedding,
        },
    )


# --------------------------------------------------------------------------- #
# The registry
# --------------------------------------------------------------------------- #

_ACMPUB = {"dataset": "acmpub", "threshold": 0.3}

#: Every gated bench by name: its workload and bars at full and smoke size.
BENCHES: dict[str, Bench] = {
    "pipeline": Bench(
        _pipeline,
        full=Size(
            {**_ACMPUB, "scale": 0.15, "similarity": "bigram", "epsilon": 0.1,
             "repeats": 3},
            {"vectorize": 5.0, "construct": 3.0},
        ),
        smoke=Size(
            {**_ACMPUB, "scale": 0.02, "similarity": "bigram", "epsilon": 0.1,
             "repeats": 3},
            {"prune": 1.0, "vectorize": 1.0, "construct": 1.0},
        ),
    ),
    "selection": Bench(
        _selection,
        full=Size(
            {**_ACMPUB, "scale": 0.15, "max_vertices": 2500,
             "selectors": ["single-path", "multi-path"], "seed": 0, "repeats": 3,
             "scaling": [0.25, 0.5, 1.0]},
            {"single-path": 3.0, "multi-path": 3.0},
        ),
        smoke=Size(
            {**_ACMPUB, "scale": 0.02, "max_vertices": 300,
             "selectors": ["single-path", "multi-path"], "seed": 0, "repeats": 11,
             "scaling": [0.5, 1.0]},
            {"single-path": 1.0, "multi-path": 1.0},
        ),
    ),
    "obs": Bench(
        _obs,
        full=Size(
            {**_ACMPUB, "scale": 0.15, "seed": 0, "worker_band": "90", "repeats": 9},
            {"metrics": 1.01, "tracing": 1.05},
        ),
        smoke=Size(
            {**_ACMPUB, "scale": 0.02, "seed": 0, "worker_band": "90", "repeats": 5},
            {"metrics": 1.25, "tracing": 1.40},
        ),
    ),
    "stream": Bench(
        _stream,
        full=Size(
            {**_ACMPUB, "scale": 0.15, "records": 2000, "batch_size": 100, "seed": 0,
             "worker_band": "90", "repeats": 3},
            {"ingest_vs_reresolve": 3.0},
        ),
        smoke=Size(
            {**_ACMPUB, "scale": 0.02, "records": 400, "batch_size": 80, "seed": 0,
             "worker_band": "90", "repeats": 5},
            {"ingest_vs_reresolve": 1.0},
        ),
    ),
    "serve": Bench(
        _serve,
        full=Size(
            {"dataset": "synthetic-restaurants", "records": 75, "batch_size": 25,
             "crowd_latency": 1.0, "concurrencies": [1, 8, 32], "seed": 0,
             "worker_band": "90", "repeats": 3},
            {"max_vs_single_throughput": 3.0},
        ),
        smoke=Size(
            {"dataset": "synthetic-restaurants", "records": 45, "batch_size": 15,
             "crowd_latency": 0.3, "concurrencies": [1, 4], "seed": 0,
             "worker_band": "90", "repeats": 3},
            {"max_vs_single_throughput": 1.2},
        ),
    ),
}

__all__ = [
    "BENCHES",
    "Bench",
    "Outcome",
    "Ratio",
    "Side",
    "Size",
    "Timing",
    "failures",
    "measure",
    "run",
    "table",
    "write",
]
