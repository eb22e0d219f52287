"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``generate`` — write one of the benchmark datasets to CSV.
* ``stats`` — dataset and partial-order statistics for a CSV.
* ``resolve`` — run the Power/Power+ pipeline on a CSV (simulated crowd
  from its ``entity_id`` column) and write the resolved clusters.
* ``simulate`` — drive a resolution run through the :mod:`repro.engine`
  orchestration runtime (fault injection, retries, budgets, journal,
  telemetry) on one of the benchmark datasets.
* ``experiment`` — run one of the paper's figure/table harnesses by name.
* ``verify`` — run the :mod:`repro.verify` correctness battery
  (differential oracles, invariants, metamorphic laws, mutation self-test).
* ``stream`` — feed a labeled CSV through the durable
  :class:`~repro.stream.StreamingResolver` in checkpointed batches.
* ``serve`` — run the :mod:`repro.serve` multi-tenant resolution server:
  many isolated streaming sessions behind one asyncio line-protocol
  endpoint, with LRU eviction to the snapshot store, admission control,
  and a graceful SIGTERM drain that checkpoints every live session.
* ``client`` — talk to a running server (or ``--spawn`` a private one):
  health/metrics probes, CSV ingestion in batches, cluster queries.
* ``trace`` — render a span trace recorded by ``--trace`` as an indented
  timing tree (or dump the raw flat records with ``--json``).
* ``bench`` — run one of the gated benches of
  :mod:`repro.experiments.bench`, print its sides and gates, and write its
  JSON report (``--check`` exits 1 when a gate fails).

``resolve``, ``simulate``, and ``stream`` share the observability flags:
``--trace FILE`` records a hierarchical span trace and ``--metrics-out
FILE`` writes the metrics registry (Prometheus text for ``.prom``/``.txt``,
JSON otherwise).  Both are off by default and provably transparent — the
``observability-transparent`` battery checks assert instrumented runs are
byte-identical to plain ones.

The ``experiment`` sub-command's name list and help text are generated
from :data:`EXPERIMENTS`, so registering a harness there is the *only*
step needed to expose it (no drift between the registry and the CLI).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import os
import sys
from pathlib import Path

from .core import PowerConfig, PowerResolver
from .data import load_csv, load_dataset, num_entities, save_csv
from .exceptions import PowerError
from .experiments import ablations, figures
from .experiments.bench import BENCHES
from .graph import PairGraph, order_statistics
from .similarity import SimilarityConfig, batch_similarity_matrix, similar_pairs

EXPERIMENTS = {
    "table2": figures.table2_similarity,
    "table3": figures.table3_datasets,
    "fig09-11": functools.partial(figures.accuracy_sweep, mode="real"),
    "fig12-14": functools.partial(figures.accuracy_sweep, mode="simulation"),
    "fig15-17": figures.similarity_function_sweep,
    "fig20": figures.construction_benchmark,
    "fig21-22": figures.grouping_benchmark,
    "fig23-24": figures.group_vs_nongroup,
    "fig25-26": figures.serial_selection,
    "fig27-30": figures.parallel_selection,
    "fig31-33": figures.error_tolerant_sweep,
    "fig34": figures.attribute_sweep,
    "ablation-confidence": ablations.confidence_sweep,
    "ablation-histograms": ablations.histogram_sweep,
    "ablation-paths": ablations.path_cover_compare,
    "ablation-topo": ablations.topo_layer_sweep,
    "ablation-aggregation": ablations.aggregation_compare,
    "ablation-budget": ablations.budget_curve,
    "ablation-index": ablations.index_dimensionality,
    "extension-incremental": ablations.incremental_compare,
    "extension-spammers": ablations.spammer_sweep,
    "extension-baselines": ablations.extended_baselines,
    "extension-scalability": ablations.scalability_sweep,
    "extension-latency": ablations.latency_compare,
    "extension-assignment": ablations.assignment_compare,
    "extension-faults": ablations.fault_sweep,
}


def experiments_help() -> str:
    """One help line per registered experiment, generated from the dict.

    The summary is the first docstring line of the harness (unwrapping
    ``functools.partial``), so the CLI help can never drift from the
    registry: add an entry to :data:`EXPERIMENTS` and it shows up here and
    in the ``choices`` list automatically.
    """
    lines = []
    for name in sorted(EXPERIMENTS):
        harness = EXPERIMENTS[name]
        target = harness.func if isinstance(harness, functools.partial) else harness
        doc = (target.__doc__ or "").strip()
        summary = doc.splitlines()[0] if doc else ""
        lines.append(f"  {name:24s}{summary}")
    return "\n".join(lines)


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared ``--trace`` / ``--metrics-out`` flags."""
    group = parser.add_argument_group("observability")
    group.add_argument("--trace", type=Path, default=None, metavar="FILE",
                       help="record a hierarchical span trace of the run "
                            "to this JSONL file (render with 'repro trace')")
    group.add_argument("--metrics-out", type=Path, default=None,
                       metavar="FILE",
                       help="write the run's metrics registry here "
                            "(.prom/.txt = Prometheus text, else JSON)")


@contextlib.contextmanager
def _observed(args):
    """Activate observability for a command body, per its CLI flags.

    Yields the live :class:`~repro.obs.Observability` handle (or ``None``
    when no flag asked for one); on clean exit writes the trace and
    metrics files.
    """
    from .obs import Observability, activated, write_metrics, write_trace

    tracing = args.trace is not None
    metrics = args.metrics_out is not None
    if not (tracing or metrics):
        yield None
        return
    obs = Observability(tracing=tracing, metrics=metrics)
    with activated(obs):
        yield obs
    if tracing:
        write_trace(obs.tracer.export(), args.trace)
        print(f"trace      : {args.trace}")
    if metrics:
        write_metrics(obs.registry, args.metrics_out)
        print(f"metrics    : {args.metrics_out}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Power/Power+ crowdsourced entity resolution (SIGMOD 2016 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="write a benchmark dataset to CSV")
    generate.add_argument("dataset", choices=["restaurant", "cora", "acmpub"])
    generate.add_argument("output", type=Path)
    generate.add_argument("--seed", type=int, default=None)
    generate.add_argument("--scale", type=float, default=None,
                          help="acmpub only: fraction of the published size")

    stats = commands.add_parser("stats", help="dataset and partial-order statistics")
    stats.add_argument("input", type=Path)
    stats.add_argument("--threshold", type=float, default=0.2,
                       help="record-level pruning threshold")
    stats.add_argument("--similarity", default="bigram",
                       choices=["bigram", "jaccard", "edit"])

    resolve = commands.add_parser("resolve", help="resolve a CSV with Power/Power+")
    resolve.add_argument("input", type=Path)
    resolve.add_argument("--output", type=Path, default=None,
                         help="write records + resolved cluster ids here")
    resolve.add_argument("--selector", default="power",
                         choices=["power", "single-path", "multi-path", "random"])
    resolve.add_argument("--similarity", default="bigram",
                         choices=["bigram", "jaccard", "edit"])
    resolve.add_argument("--threshold", type=float, default=0.2)
    resolve.add_argument("--epsilon", type=float, default=0.1,
                         help="grouping threshold; 0 disables grouping")
    resolve.add_argument("--band", default="90", choices=["70", "80", "90"],
                         help="simulated worker accuracy band")
    resolve.add_argument("--budget", type=int, default=None,
                         help="maximum crowd questions")
    resolve.add_argument("--no-error-tolerant", action="store_true",
                         help="run plain Power instead of Power+")
    resolve.add_argument("--seed", type=int, default=0)
    _add_obs_arguments(resolve)

    simulate = commands.add_parser(
        "simulate",
        help="drive a run through the fault-injecting orchestration engine",
        description=(
            "Run one resolution algorithm through the repro.engine runtime: "
            "selection rounds are posted as HIT batches onto a simulated "
            "platform with injectable faults, retry/backoff re-posting, "
            "budget guardrails, a crash-resumable answer journal, and "
            "per-run telemetry written to the output directory."
        ),
    )
    simulate.add_argument("--dataset", default="restaurant",
                          choices=["restaurant", "cora", "acmpub"])
    simulate.add_argument("--fault-profile", default="none",
                          help="none, flaky, hostile, or scaled:<rate>")
    simulate.add_argument("--method", default="power+",
                          choices=["power", "power+", "trans", "acd", "gcer",
                                   "crowder"])
    simulate.add_argument("--band", default="90", choices=["70", "80", "90"],
                          help="simulated worker accuracy band")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--budget-cents", type=float, default=None,
                          help="money guardrail (incl. re-post surcharge)")
    simulate.add_argument("--budget-questions", type=int, default=None,
                          help="distinct-question guardrail")
    simulate.add_argument("--out-dir", type=Path,
                          default=Path("benchmarks") / "results",
                          help="where the journal + telemetry land")
    simulate.add_argument("--journal", type=Path, default=None,
                          help="explicit journal path (overrides --out-dir)")
    simulate.add_argument("--resume", action="store_true",
                          help="resume from an existing journal instead of "
                               "starting fresh")
    _add_obs_arguments(simulate)

    experiment = commands.add_parser(
        "experiment",
        help="run one of the paper's figure/table harnesses",
        description="Registered experiments:\n" + experiments_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    experiment.add_argument("name", choices=sorted(EXPERIMENTS))
    experiment.add_argument("--save-to", type=Path, default=None)

    verify = commands.add_parser(
        "verify",
        help="run the differential-oracle / invariant verification battery",
        description=(
            "Run the repro.verify battery: brute-force differential oracles "
            "(dominance kernels, batch similarity, joins, crowd aggregation, "
            "production-vs-naive selector runs), structural invariants "
            "(partial-order laws, topo layering, path covers, billing "
            "coherence), metamorphic laws (permutation invariance, duplicate "
            "idempotence, cost monotonicity), and a seeded-mutation "
            "self-test proving the checks detect injected bugs."
        ),
    )
    verify.add_argument("--dataset", default="restaurant",
                        choices=["restaurant", "cora", "acmpub", "products"])
    verify.add_argument("--scale", type=float, default=0.05,
                        help="fraction of the dataset's records to verify on")
    verify.add_argument("--seeds", type=int, default=10,
                        help="random-matrix seeds for the synthetic sweeps")
    verify.add_argument("--seed", type=int, default=0, help="base seed")
    verify.add_argument("--skip-mutation", action="store_true",
                        help="skip the seeded-mutant self-test")
    verify.add_argument("--skip-metamorphic", action="store_true",
                        help="skip the dataset metamorphic laws")
    verify.add_argument("--quiet", action="store_true",
                        help="print failures and the verdict only")

    stream = commands.add_parser(
        "stream",
        help="durable streaming resolution with checkpoint/restore",
        description=(
            "Feed a labeled CSV through repro.stream.StreamingResolver in "
            "record batches: each batch is resolved incrementally (only "
            "new-vs-old and new-vs-new candidate pairs are ever asked), and "
            "with --checkpoint-dir every completed batch is snapshotted to "
            "a versioned, content-addressed checkpoint.  A killed run "
            "resumes with --resume from the last complete batch — "
            "bit-identically, without re-asking any paid pair."
        ),
    )
    stream.add_argument("input", type=Path,
                        help="CSV with an entity_id column (the simulated "
                             "crowd's ground truth)")
    stream.add_argument("--batch-size", type=int, default=50,
                        help="records ingested per batch")
    stream.add_argument("--checkpoint-dir", type=Path, default=None,
                        help="snapshot directory; one checkpoint is "
                             "written after every batch")
    stream.add_argument("--resume", action="store_true",
                        help="restore from --checkpoint-dir and continue "
                             "the stream from the last complete batch")
    stream.add_argument("--max-batches", type=int, default=None,
                        help="stop after this many (new) batches")
    stream.add_argument("--band", default="90", choices=["70", "80", "90"],
                        help="simulated worker accuracy band")
    stream.add_argument("--seed", type=int, default=0)
    _add_obs_arguments(stream)

    serve = commands.add_parser(
        "serve",
        help="run the multi-tenant async resolution server",
        description=(
            "Host many isolated streaming-resolution sessions behind one "
            "asyncio JSON-lines endpoint (repro.serve).  Each session is a "
            "single-writer actor over a StreamingResolver; resident memory "
            "is bounded by LRU eviction to the snapshot store (sessions "
            "restore transparently on the next touch), ingest is guarded "
            "by per-session admission control with explicit retry_after "
            "load shedding, and SIGTERM/SIGINT drains gracefully: every "
            "live session is checkpointed before exit, so no paid crowd "
            "answer is ever lost.  The same port answers plain HTTP GET "
            "/healthz and /metrics (Prometheus text)."
        ),
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port; 0 picks an ephemeral port (the "
                            "bound port is printed on startup)")
    serve.add_argument("--checkpoint-root", type=Path, required=True,
                       help="directory holding one snapshot subdirectory "
                            "per session (eviction + drain target)")
    serve.add_argument("--max-sessions", type=int, default=8,
                       help="LRU cap on resolver sessions held in memory")
    serve.add_argument("--queue-depth", type=int, default=4,
                       help="per-session bounded ingest queue; beyond it "
                            "requests are shed with retry_after")
    serve.add_argument("--crowd-latency", type=float, default=0.0,
                       help="simulated crowd round-trip seconds awaited "
                            "per ingested batch (timing only, never state)")

    client = commands.add_parser(
        "client",
        help="talk to a running resolution server",
        description=(
            "Drive a repro.serve server over its JSON-lines protocol: "
            "probe health/metrics, ingest a labeled CSV in batches into a "
            "named session, query its clusters, or close it.  With "
            "--spawn DIR a private server is launched on an ephemeral "
            "port with that checkpoint root, used for the action, and "
            "drained with SIGTERM afterwards."
        ),
    )
    client.add_argument("action",
                        choices=["health", "metrics", "ingest-csv",
                                 "clusters", "checkpoint", "close"])
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, default=None,
                        help="server port (required unless --spawn)")
    client.add_argument("--session", default=None,
                        help="session name (session actions)")
    client.add_argument("--input", type=Path, default=None,
                        help="labeled CSV to ingest (ingest-csv)")
    client.add_argument("--batch-size", type=int, default=50,
                        help="records per ingest request")
    client.add_argument("--band", default="90", choices=["70", "80", "90"],
                        help="simulated worker accuracy band")
    client.add_argument("--seed", type=int, default=0,
                        help="session config seed (ingest-csv create)")
    client.add_argument("--spawn", type=Path, default=None,
                        metavar="CHECKPOINT_ROOT",
                        help="launch a private server with this checkpoint "
                             "root for the duration of the action")

    trace = commands.add_parser(
        "trace",
        help="render a span trace recorded with --trace",
        description=(
            "Read a JSONL span trace (written by the --trace flag of "
            "resolve/simulate/stream) and print it as an indented timing "
            "tree: wall and CPU milliseconds per span, attributes, and "
            "error markers."
        ),
    )
    trace.add_argument("input", type=Path, help="trace JSONL file")
    trace.add_argument("--max-depth", type=int, default=None,
                       help="hide spans nested deeper than this")
    trace.add_argument("--min-ms", type=float, default=0.0,
                       help="hide non-root spans shorter than this")
    trace.add_argument("--json", action="store_true",
                       help="dump the raw flat span records instead of "
                            "the tree")

    bench = commands.add_parser(
        "bench",
        help="run one gated benchmark and write its report",
        description=(
            "Time a bench's sides (one untimed run each, then interleaved "
            "repeats), check its equivalences, and gate the ratios of its "
            "medians.  POWER_BENCH_FAST=1 runs the smoke size."
        ),
    )
    bench.add_argument("name", choices=sorted(BENCHES))
    bench.add_argument("--check", action="store_true",
                       help="exit 1 when a ratio bar or a check fails")
    bench.add_argument("--out", type=Path, default=None,
                       help="report path (default: "
                            "benchmarks/results/BENCH_<name>.json)")

    return parser


def _command_generate(args) -> int:
    kwargs = {}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.scale is not None:
        if args.dataset != "acmpub":
            print("--scale only applies to acmpub", file=sys.stderr)
            return 2
        kwargs["scale"] = args.scale
    table = load_dataset(args.dataset, **kwargs)
    save_csv(table, args.output)
    print(
        f"wrote {len(table)} records / {num_entities(table)} entities "
        f"to {args.output}"
    )
    return 0


def _command_stats(args) -> int:
    table = load_csv(args.input)
    print(f"dataset   : {table.name}")
    print(f"records   : {len(table)}")
    print(f"attributes: {table.num_attributes} {table.attributes}")
    if table.has_ground_truth():
        print(f"entities  : {num_entities(table)}")
    pairs = similar_pairs(table, args.threshold)
    print(f"candidate pairs (threshold {args.threshold}): {len(pairs)}")
    if pairs:
        config = SimilarityConfig.uniform(table.num_attributes, function=args.similarity)
        vectors = batch_similarity_matrix(table, pairs, config)
        graph = PairGraph(pairs, vectors)
        compute_width = len(pairs) <= 5000
        print(f"partial order: {order_statistics(graph, compute_width=compute_width)}")
    return 0


def _command_resolve(args) -> int:
    table = load_csv(args.input)
    if not table.has_ground_truth():
        print(
            "resolve needs an entity_id column to simulate the crowd; "
            "for a real crowd, use the library API with your own session",
            file=sys.stderr,
        )
        return 2
    config = PowerConfig(
        similarity=args.similarity,
        pruning_threshold=args.threshold,
        epsilon=args.epsilon if args.epsilon > 0 else None,
        selector=args.selector,
        error_tolerant=not args.no_error_tolerant,
        seed=args.seed,
    )
    resolver = PowerResolver(config)
    with _observed(args):
        result = resolver.resolve(table, worker_band=args.band, budget=args.budget)
    clusters = result.clusters
    print(f"questions : {result.questions}")
    print(f"iterations: {result.iterations}")
    print(f"cost      : {result.cost_cents / 100:.2f} USD")
    print(f"clusters  : {len(clusters)}")
    print(f"quality   : {result.quality}")
    if args.output is not None:
        with args.output.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(list(table.attributes) + ["cluster_id"])
            cluster_of = {
                record: index
                for index, members in enumerate(clusters)
                for record in members
            }
            for record in table:
                writer.writerow(
                    list(record.values) + [cluster_of[record.record_id]]
                )
        print(f"wrote clusters to {args.output}")
    return 0


def _command_simulate(args) -> int:
    from .crowd.latency import LatencyModel
    from .engine import CrowdEngine, EngineConfig, resolve_profile
    from .experiments.runner import make_crowd, prepare, run_method

    profile = resolve_profile(args.fault_profile)
    label = profile.name.replace(":", "-")
    journal_path = args.journal
    if journal_path is None:
        journal_path = args.out_dir / f"SIM_{args.dataset}_{label}.journal.jsonl"
    if not args.resume and journal_path.exists():
        journal_path.unlink()  # a fresh run must not replay a stale journal

    with _observed(args):
        workload = prepare(args.dataset)
        crowd = make_crowd(workload, args.band, args.seed, mode="simulation")
        engine = CrowdEngine(EngineConfig(
            faults=profile,
            seed=args.seed,
            max_cents=args.budget_cents,
            max_questions=args.budget_questions,
            journal_path=journal_path,
            resume=args.resume,
        ))
        row = run_method(
            args.method, workload, crowd, seed=args.seed, engine=engine
        )

    telemetry = engine.telemetry
    estimate = LatencyModel().estimate_seconds(row.extras.get("batch_sizes", []))
    print(f"dataset        : {args.dataset} (band {args.band}, seed {args.seed})")
    print(f"method         : {args.method}")
    print(f"fault profile  : {profile.name}")
    print(f"questions      : {row.questions}")
    print(f"iterations     : {row.iterations}")
    selection = row.extras.get("selection")
    if selection:
        print(f"selection      : rounds {selection['rounds']}  "
              f"cover {row.assignment_time:.3f}s  "
              f"incremental {'on' if selection['incremental'] else 'off'}")
        engine_stats = selection.get("engine")
        if engine_stats:
            print(f"path-cover     : covers {engine_stats['covers']}  "
                  f"scratch builds {engine_stats['scratch_builds']}  "
                  f"deleted vertices {engine_stats['deleted_vertices']}")
    print(f"F1             : {row.f_measure:.3f}")
    print(f"billed         : {row.cost_cents / 100:.2f} USD")
    print(f"total spent    : {telemetry.total_spent_cents / 100:.2f} USD "
          f"(re-posts {telemetry.repost_cents / 100:.2f} USD)")
    print(f"wall clock     : {telemetry.wall_clock_seconds / 60:.1f} min "
          f"(fault-free closed form {estimate / 60:.1f} min)")
    print(f"re-posts       : {telemetry.re_posts}  expired: {telemetry.expired}  "
          f"abandoned: {telemetry.abandoned}  machine: {telemetry.machine_answers}  "
          f"spam: {telemetry.spam_hijacked}")
    print(f"journal        : {journal_path}")
    print(f"telemetry      : {journal_path.with_suffix('.telemetry.json')}")
    return 0


def _command_experiment(args) -> int:
    harness = EXPERIMENTS[args.name]
    harness(save_to=args.save_to)
    return 0


def _command_stream(args) -> int:
    from .exceptions import DataError
    from .stream import StreamingResolver

    table = load_csv(args.input)
    if not table.has_ground_truth():
        print(
            "stream needs an entity_id column to simulate the crowd; "
            "for a real crowd, use the library API with your own session",
            file=sys.stderr,
        )
        return 2
    if args.batch_size < 1:
        print("--batch-size must be >= 1", file=sys.stderr)
        return 2
    if args.resume:
        if args.checkpoint_dir is None:
            print("--resume requires --checkpoint-dir", file=sys.stderr)
            return 2
        resolver = StreamingResolver.restore(args.checkpoint_dir)
        if tuple(resolver.table.attributes) != tuple(table.attributes):
            raise DataError(
                f"checkpoint schema {resolver.table.attributes} does not "
                f"match {args.input}'s columns {table.attributes}"
            )
        print(
            f"resumed from batch {resolver.batches} "
            f"({len(resolver.table)} records, "
            f"{resolver.total_questions} questions already paid)"
        )
    else:
        resolver = StreamingResolver(
            table.attributes,
            config=PowerConfig(seed=args.seed),
            name=table.name,
            checkpoint_dir=args.checkpoint_dir,
            worker_band=args.band,
        )
    offset = len(resolver.table)
    records = table.records[offset:]
    ran = 0
    # Graceful shutdown: SIGTERM/SIGINT set a flag instead of killing the
    # process mid-batch.  The current batch finishes and its checkpoint is
    # flushed whole (no torn manifest tail to repair), then the stream
    # stops cleanly — resumable with --resume, no paid answer lost.
    import signal

    stop_signal: list[int] = []

    def _request_stop(signum, frame):
        stop_signal.append(signum)

    previous_handlers = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous_handlers[signum] = signal.signal(signum, _request_stop)
        except (ValueError, OSError):
            pass  # not the main thread / unsupported platform
    try:
        with _observed(args):
            for start in range(0, len(records), args.batch_size):
                if stop_signal:
                    break
                if args.max_batches is not None and ran >= args.max_batches:
                    break
                chunk = records[start : start + args.batch_size]
                report = resolver.add_batch(
                    [record.values for record in chunk],
                    entity_ids=[record.entity_id for record in chunk],
                )
                line = (
                    f"batch {report['batch']}: +{report['new_records']} records, "
                    f"{report['new_pairs']} pairs, {report['questions']} "
                    f"questions, clusters={report['clusters']}"
                )
                if args.checkpoint_dir is not None:
                    checkpoint = resolver.checkpoint()
                    line += f", checkpoint {checkpoint['state_sha'][:12]}"
                print(line, flush=True)
                ran += 1
    finally:
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
        resolver.close()
    if stop_signal:
        print(
            f"received signal {stop_signal[0]}; stopped cleanly after "
            f"batch {resolver.batches} (checkpoint flushed, resume with "
            "--resume)",
            flush=True,
        )
    if ran == 0 and not stop_signal:
        print("no new records to ingest")
    print(resolver.summary())
    return 0


def _command_serve(args) -> int:
    import asyncio
    import signal

    from .obs import Observability, activated
    from .serve import ServeApp, run_server

    async def runner() -> list[dict]:
        app = ServeApp(
            args.checkpoint_root,
            max_sessions=args.max_sessions,
            queue_depth=args.queue_depth,
            crowd_latency=args.crowd_latency,
        )
        loop = asyncio.get_running_loop()
        shutdown = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, shutdown.set)
            except (NotImplementedError, RuntimeError):
                signal.signal(
                    signum, lambda *_: loop.call_soon_threadsafe(shutdown.set)
                )
        ready: asyncio.Future = loop.create_future()
        serve_task = loop.create_task(
            run_server(
                app,
                host=args.host,
                port=args.port,
                shutdown=shutdown,
                ready=ready,
            )
        )
        port = await ready
        print(
            f"serving on {args.host}:{port} "
            f"(checkpoint root {args.checkpoint_root}, "
            f"max {args.max_sessions} resident sessions)",
            flush=True,
        )
        drained = await serve_task
        for record in drained:
            print(
                f"drained session {record['session']}: "
                f"batch {record['batch']}, state_sha {record['state_sha']}",
                flush=True,
            )
        return drained

    # Serving globally activates a metrics-only handle so repro_stream_*
    # batch metrics flow into /metrics alongside the repro_serve_* families.
    obs = Observability(tracing=False, metrics=True)
    with activated(obs):
        drained = asyncio.run(runner())
    print(f"drained {len(drained)} session(s); bye", flush=True)
    return 0


def _spawned_server(args):
    """Launch a private ``repro serve`` subprocess; returns (proc, port)."""
    import re
    import subprocess

    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--checkpoint-root",
            str(args.spawn),
            "--host",
            args.host,
            "--port",
            "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    line = proc.stdout.readline()
    match = re.search(r"serving on [^:]+:(\d+)", line or "")
    if not match:
        proc.terminate()
        proc.communicate()
        raise PowerError(f"spawned server did not start: {line!r}")
    return proc, int(match.group(1))


#: Seconds ``repro client`` waits to connect, and for each answer.
_CLIENT_TIMEOUT = 60.0


def _command_client(args) -> int:
    import asyncio
    import signal
    import subprocess

    needs_session = args.action in ("ingest-csv", "clusters", "checkpoint", "close")
    if needs_session and not args.session:
        print(f"{args.action} requires --session", file=sys.stderr)
        return 2
    if args.action == "ingest-csv" and args.input is None:
        print("ingest-csv requires --input CSV", file=sys.stderr)
        return 2
    if args.action == "ingest-csv" and args.batch_size < 1:
        print("--batch-size must be >= 1", file=sys.stderr)
        return 2
    if args.port is None and args.spawn is None:
        print("need --port (or --spawn CHECKPOINT_ROOT)", file=sys.stderr)
        return 2

    proc = None
    port = args.port
    if args.spawn is not None:
        # The spawned server prints its banner only once it listens, so
        # one connection attempt is enough.
        proc, port = _spawned_server(args)
    try:
        return asyncio.run(_client_action(args, port))
    finally:
        if proc is not None:
            # communicate() reads the server's output to its end and closes
            # the pipe, as well as reaping the process.
            proc.send_signal(signal.SIGTERM)
            try:
                proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()


async def _client_action(args, port: int) -> int:
    """Run one ``repro client`` action over one connection to *port*."""
    import asyncio
    import json

    from .exceptions import OverloadedError, ServeError
    from .serve import AsyncServeClient
    from .stream.service import _encode_config

    client = AsyncServeClient(host=args.host, port=port)
    try:
        await asyncio.wait_for(client.connect(), _CLIENT_TIMEOUT)
    except (OSError, asyncio.TimeoutError) as error:
        raise ServeError(f"cannot connect to {args.host}:{port}: {error}") from None

    async def call(op, **fields):
        while True:
            try:
                return await asyncio.wait_for(client.call(op, **fields), _CLIENT_TIMEOUT)
            except OverloadedError as error:
                await asyncio.sleep(max(0.01, error.retry_after))
            except asyncio.TimeoutError:
                raise ServeError(
                    f"no answer to {op} within {_CLIENT_TIMEOUT:g} s"
                ) from None

    try:
        if args.action == "health":
            health = await call("healthz")
            for key in ("status", "protocol", "resident", "known_sessions"):
                print(f"{key:14s}: {health[key]}")
        elif args.action == "metrics":
            print((await call("metrics"))["metrics"], end="")
        elif args.action == "ingest-csv":
            table = load_csv(args.input)
            if not table.has_ground_truth():
                print(
                    "ingest-csv needs an entity_id column to simulate "
                    "the crowd",
                    file=sys.stderr,
                )
                return 2
            created = await call(
                "create_session",
                session=args.session,
                attributes=list(table.attributes),
                config=_encode_config(PowerConfig(seed=args.seed)),
                worker_band=args.band,
            )
            verb = "created" if created["created"] else "attached to"
            print(
                f"{verb} session {args.session} "
                f"({created['records']} records, "
                f"batch {created['batches']})"
            )
            records = table.records[created["records"]:]
            for start in range(0, len(records), args.batch_size):
                chunk = records[start : start + args.batch_size]
                report = await call(
                    "ingest",
                    session=args.session,
                    rows=[list(record.values) for record in chunk],
                    entity_ids=[record.entity_id for record in chunk],
                )
                print(
                    f"batch {report['batch']}: "
                    f"+{report['new_records']} records, "
                    f"{report['new_pairs']} pairs, "
                    f"{report['questions']} questions, "
                    f"clusters={report['clusters']}",
                    flush=True,
                )
            checkpoint = await call("checkpoint", session=args.session)
            print(
                f"checkpoint : batch {checkpoint['batch']}, "
                f"{checkpoint['records']} records, "
                f"{checkpoint['questions']} questions, "
                f"state_sha {checkpoint['state_sha'][:12]}"
            )
        elif args.action == "clusters":
            result = await call("query_clusters", session=args.session)
            print(json.dumps(result["clusters"]))
            print(
                f"clusters   : {len(result['clusters'])} over "
                f"{result['records']} records "
                f"({result['questions']} questions, "
                f"{result['cost_cents'] / 100:.2f} USD)"
            )
        elif args.action == "checkpoint":
            checkpoint = await call("checkpoint", session=args.session)
            print(
                f"checkpoint : batch {checkpoint['batch']}, "
                f"state_sha {checkpoint['state_sha']}"
            )
        elif args.action == "close":
            closed = await call("close", session=args.session)
            print(
                f"closed {closed['session']}: batch {closed['batch']}, "
                f"state_sha {closed['state_sha']}"
            )
    finally:
        await client.close()
    return 0


def _command_trace(args) -> int:
    import json

    from .obs import read_trace, render_trace, trace_records

    spans = read_trace(args.input)
    if args.json:
        for record in trace_records(spans):
            print(json.dumps(record, sort_keys=True))
    else:
        print(render_trace(
            spans,
            max_depth=args.max_depth,
            min_seconds=args.min_ms / 1000.0,
        ))
    return 0


def _command_bench(args) -> int:
    from .experiments import bench

    report = bench.run(args.name)
    out = args.out or Path("benchmarks/results") / f"BENCH_{args.name}.json"
    print(bench.table(report))
    print(f"report -> {bench.write(report, out)}")
    failures = bench.failures(report)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if args.check and failures else 0


def _command_verify(args) -> int:
    from .verify import BatteryConfig, run_battery

    config = BatteryConfig(
        dataset=args.dataset,
        scale=args.scale,
        seeds=args.seeds,
        base_seed=args.seed,
        include_mutation=not args.skip_mutation,
        include_metamorphic=not args.skip_metamorphic,
    )
    report = run_battery(config)
    if args.quiet:
        for failure in report.failures:
            print(failure)
        verdict = (
            f"{len(report.results)} checks, all passed"
            if report.passed
            else f"{len(report.results)} checks, {len(report.failures)} FAILED"
        )
        print(verdict)
    else:
        print(report.summary())
    return 0 if report.passed else 1


def main(argv=None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "generate": _command_generate,
        "stats": _command_stats,
        "resolve": _command_resolve,
        "simulate": _command_simulate,
        "experiment": _command_experiment,
        "verify": _command_verify,
        "stream": _command_stream,
        "serve": _command_serve,
        "client": _command_client,
        "trace": _command_trace,
        "bench": _command_bench,
    }
    try:
        code = handlers[args.command](args)
        # A reader that closed the pipe early fails this flush, inside the
        # try, rather than the interpreter's own flush at exit.
        sys.stdout.flush()
        return code
    except PowerError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # ``repro trace t.jsonl | head -1``: the reader is gone, so send
        # what is still buffered to devnull and exit without a traceback
        # (the pattern the ``signal`` module documents for SIGPIPE).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
