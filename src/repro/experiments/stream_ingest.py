"""Streaming-ingest benchmark: what durability and incrementality buy.

One speedup justifies :mod:`repro.stream`'s existence, and this harness
measures and gates it on an ACMPub workload (equivalence asserted while
timing — a fast path that changes answers is a bug, not a win): streaming
B batches through :class:`~repro.stream.StreamingResolver` (one
:class:`~repro.similarity.batch.PostingJoin` extended per batch, so only
new×old and new×new candidate pairs are found and resolved) against the
naive service, which re-resolves the whole growing prefix with
:class:`~repro.core.resolver.PowerResolver` after every batch.  The stream
must finish at least :data:`RESOLVE_SPEEDUP_MIN`× faster, while deciding
exactly the pair universe the final one-shot join produces.  The report
also sums each batch's candidate-search seconds.

Both paths run once untimed before any is timed, so every timed run reads
warm tokenizer and similarity caches; then interleaved repeats time each
path, and the gate reads their medians (every run is reported).
``POWER_BENCH_FAST=1`` shrinks the workload and relaxes the speedup bar
(sub-second runs make ratios noisy); equivalence is never relaxed.  The
report lands in ``benchmarks/results/BENCH_stream.json``.
"""

from __future__ import annotations

import platform
import time
from statistics import median

from ..core import PowerConfig, PowerResolver
from ..data import acmpub
from ..data.table import Table
from ..exceptions import ConfigurationError
from ..stream import StreamingResolver
from .runner import fast_mode

#: Full-run floor — the streaming layer's acceptance bar.
RESOLVE_SPEEDUP_MIN = 3.0

#: Smoke-run floor: tiny workloads only have to not be slower.
FAST_RESOLVE_SPEEDUP_MIN = 1.0

#: Timed repeats per path; smoke runs are short enough to afford more.
REPEATS = 3
FAST_REPEATS = 5


def _workload(scale: float | None, records_cap: int | None, batch_size: int | None):
    if scale is None:
        scale = 0.02 if fast_mode() else 0.15
    if records_cap is None:
        records_cap = 400 if fast_mode() else 2000
    if batch_size is None:
        batch_size = 80 if fast_mode() else 100
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    table = acmpub(scale=scale)
    records = table.records[: records_cap or len(table)]
    return table.attributes, records, scale, batch_size


def _chunks(records, batch_size):
    return [
        records[start : start + batch_size]
        for start in range(0, len(records), batch_size)
    ]


def run_stream_ingest_benchmark(
    scale: float | None = None,
    records_cap: int | None = None,
    batch_size: int | None = None,
    seed: int = 0,
    worker_band: str = "90",
) -> dict:
    """Time streamed vs re-resolved ingest.

    After one untimed warm-up pass of each path, :data:`REPEATS` rounds
    (:data:`FAST_REPEATS` in fast mode) time the stream and re-resolve in
    turn; the gate reads the medians.
    """
    repeats = FAST_REPEATS if fast_mode() else REPEATS
    attributes, records, scale, batch_size = _workload(
        scale, records_cap, batch_size
    )
    config = PowerConfig(seed=seed, pruning_threshold=0.3)
    chunks = _chunks(records, batch_size)

    def stream():
        service = StreamingResolver(
            attributes,
            config=config,
            name="bench-stream",
            worker_band=worker_band,
        )
        started = time.perf_counter()
        for chunk in chunks:
            service.add_batch(
                [record.values for record in chunk],
                entity_ids=[record.entity_id for record in chunk],
            )
        wall = time.perf_counter() - started
        candidate_seconds = sum(r["ingest_seconds"] for r in service.reports)
        return service, wall, candidate_seconds

    def reresolve():
        started = time.perf_counter()
        final = None
        for end in range(batch_size, len(records) + batch_size, batch_size):
            prefix = Table(name="bench-prefix", attributes=tuple(attributes))
            for record in records[: min(end, len(records))]:
                prefix.append(record.values, entity_id=record.entity_id)
            final = PowerResolver(config).resolve(prefix, worker_band=worker_band)
        return final, time.perf_counter() - started

    # One untimed pass of each path first: the tokenizer and similarity
    # caches fill and lazy set-up finishes, so neither path is timed cold
    # while the other reads the caches it left behind.
    stream()
    reresolve()
    runs: dict[str, list[float]] = {"stream": [], "candidates": [], "reresolve": []}
    for _ in range(repeats):
        streamed, wall, candidate_seconds = stream()
        runs["stream"].append(wall)
        runs["candidates"].append(candidate_seconds)
        final, wall = reresolve()
        runs["reresolve"].append(wall)
    stream_wall = median(runs["stream"])
    reresolve_wall = median(runs["reresolve"])

    return {
        "benchmark": "stream-ingest",
        "fast_mode": fast_mode(),
        "python": platform.python_version(),
        "workload": {
            "dataset": "acmpub",
            "scale": scale,
            "records": len(records),
            "batch_size": batch_size,
            "batches": len(chunks),
            "seed": seed,
            "worker_band": worker_band,
            "repeats": repeats,
        },
        "runs": runs,
        "stream": {
            "wall_seconds": stream_wall,
            "candidate_seconds": median(runs["candidates"]),
            "questions": streamed.total_questions,
            "pairs_decided": len(streamed.labels),
            "clusters": len(streamed.clusters()),
            "pooled_cost_cents": streamed.cost_cents,
        },
        "reresolve": {"wall_seconds": reresolve_wall},
        "speedups": {"ingest_vs_reresolve": reresolve_wall / stream_wall},
        "equivalence": {
            "stream_universe_equals_one_shot_join": (
                set(streamed.labels) == set(final.candidate_pairs)
            ),
        },
    }


def stream_summary_rows(report: dict) -> list[list]:
    stream, speedups = report["stream"], report["speedups"]
    return [
        ["stream", f"{stream['wall_seconds']:.2f}s",
         f"{stream['candidate_seconds']:.3f}s", "--"],
        ["re-resolve/batch", f"{report['reresolve']['wall_seconds']:.2f}s",
         "--", f"{speedups['ingest_vs_reresolve']:.2f}x ingest"],
    ]


def stream_acceptance_failures(report: dict) -> list[str]:
    """Gate violations, empty when the benchmark passes."""
    resolve_min = (
        FAST_RESOLVE_SPEEDUP_MIN if report["fast_mode"] else RESOLVE_SPEEDUP_MIN
    )
    speedups, equivalence = report["speedups"], report["equivalence"]
    failures = []
    if not equivalence["stream_universe_equals_one_shot_join"]:
        failures.append(
            "streamed decided-pair universe differs from the one-shot join"
        )
    if speedups["ingest_vs_reresolve"] < resolve_min:
        failures.append(
            f"streamed ingest is only {speedups['ingest_vs_reresolve']:.2f}x "
            f"faster than re-resolve-per-batch (floor {resolve_min}x)"
        )
    return failures


__all__ = [
    "FAST_REPEATS",
    "FAST_RESOLVE_SPEEDUP_MIN",
    "REPEATS",
    "RESOLVE_SPEEDUP_MIN",
    "run_stream_ingest_benchmark",
    "stream_acceptance_failures",
    "stream_summary_rows",
]
