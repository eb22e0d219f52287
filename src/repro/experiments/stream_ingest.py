"""Streaming-ingest benchmark: what durability and incrementality buy.

Two speedups justify :mod:`repro.stream`'s existence, and this harness
measures and gates both on an ACMPub workload (equivalence asserted while
timing — a fast path that changes answers is a bug, not a win):

* **incremental vs re-resolve** — streaming B batches through
  :class:`~repro.stream.StreamingResolver` (only new×old and new×new
  candidate pairs per batch) against the naive service: re-resolving the
  whole growing prefix with :class:`~repro.core.resolver.PowerResolver`
  after every batch.  The stream must finish at least
  :data:`RESOLVE_SPEEDUP_MIN`× faster, while deciding exactly the pair
  universe the final one-shot join produces.
* **extend vs rebuild index maintenance** — the same stream with
  ``index_mode="extend"`` (fold new records into the live
  :class:`~repro.similarity.batch.TokenIndex`, O(new) interning) against
  ``index_mode="rebuild"`` (re-intern all records every batch, the O(all)
  reference).  Extend must cut summed index-maintenance time by at least
  :data:`INDEX_SPEEDUP_MIN`× and stay *bit-identical*: same labels,
  questions, billing, and clusters.

Both paths run once untimed before any is timed, so every timed run reads
warm tokenizer and similarity caches; then interleaved repeats time each
path, and the gates read their medians (every run is reported).
``POWER_BENCH_FAST=1`` shrinks the workload and relaxes the speedup bars
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

#: Full-run floors — the streaming layer's acceptance bars.
RESOLVE_SPEEDUP_MIN = 3.0
INDEX_SPEEDUP_MIN = 3.0

#: Smoke-run floors: tiny workloads only have to not be slower.
FAST_RESOLVE_SPEEDUP_MIN = 1.0
FAST_INDEX_SPEEDUP_MIN = 0.8

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
    """Time streamed vs re-resolved ingest and extend vs rebuild indexing.

    After one untimed warm-up pass of each path, :data:`REPEATS` rounds
    (:data:`FAST_REPEATS` in fast mode) time extend, rebuild and
    re-resolve in turn; the gates read the medians.
    """
    repeats = FAST_REPEATS if fast_mode() else REPEATS
    attributes, records, scale, batch_size = _workload(
        scale, records_cap, batch_size
    )
    config = PowerConfig(seed=seed, pruning_threshold=0.3)
    chunks = _chunks(records, batch_size)

    def stream(index_mode: str):
        service = StreamingResolver(
            attributes,
            config=config,
            name="bench-stream",
            worker_band=worker_band,
            index_mode=index_mode,
        )
        started = time.perf_counter()
        for chunk in chunks:
            service.add_batch(
                [record.values for record in chunk],
                entity_ids=[record.entity_id for record in chunk],
            )
        wall = time.perf_counter() - started
        index_seconds = sum(r["index_seconds"] for r in service.reports)
        return service, wall, index_seconds

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
    stream("extend")
    reresolve()
    runs: dict[str, list[float]] = {
        "extend": [], "extend_index": [], "rebuild": [], "rebuild_index": [],
        "reresolve": [],
    }
    for _ in range(repeats):
        extend, wall, index_seconds = stream("extend")
        runs["extend"].append(wall)
        runs["extend_index"].append(index_seconds)
        rebuild, wall, index_seconds = stream("rebuild")
        runs["rebuild"].append(wall)
        runs["rebuild_index"].append(index_seconds)
        final, wall = reresolve()
        runs["reresolve"].append(wall)
    extend_wall, extend_index = median(runs["extend"]), median(runs["extend_index"])
    rebuild_wall, rebuild_index = median(runs["rebuild"]), median(runs["rebuild_index"])
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
            "wall_seconds": extend_wall,
            "index_seconds": extend_index,
            "questions": extend.total_questions,
            "pairs_decided": len(extend.labels),
            "clusters": len(extend.clusters()),
            "pooled_cost_cents": extend.cost_cents,
        },
        "rebuild": {
            "wall_seconds": rebuild_wall,
            "index_seconds": rebuild_index,
        },
        "reresolve": {"wall_seconds": reresolve_wall},
        "speedups": {
            "ingest_vs_reresolve": reresolve_wall / extend_wall,
            "index_extend_vs_rebuild": rebuild_index / extend_index,
        },
        "equivalence": {
            "extend_equals_rebuild": (
                extend.labels == rebuild.labels
                and extend.transcripts == rebuild.transcripts
                and extend.total_questions == rebuild.total_questions
                and extend.total_cost_cents == rebuild.total_cost_cents
                and extend.clusters() == rebuild.clusters()
            ),
            "stream_universe_equals_one_shot_join": (
                set(extend.labels) == set(final.candidate_pairs)
            ),
        },
    }


def stream_summary_rows(report: dict) -> list[list]:
    stream, speedups = report["stream"], report["speedups"]
    return [
        ["stream (extend)", f"{stream['wall_seconds']:.2f}s",
         f"{stream['index_seconds']:.3f}s", "--"],
        ["stream (rebuild)", f"{report['rebuild']['wall_seconds']:.2f}s",
         f"{report['rebuild']['index_seconds']:.3f}s",
         f"{speedups['index_extend_vs_rebuild']:.2f}x index"],
        ["re-resolve/batch", f"{report['reresolve']['wall_seconds']:.2f}s",
         "--", f"{speedups['ingest_vs_reresolve']:.2f}x ingest"],
    ]


def stream_acceptance_failures(report: dict) -> list[str]:
    """Gate violations, empty when the benchmark passes."""
    fast = report["fast_mode"]
    resolve_min = FAST_RESOLVE_SPEEDUP_MIN if fast else RESOLVE_SPEEDUP_MIN
    index_min = FAST_INDEX_SPEEDUP_MIN if fast else INDEX_SPEEDUP_MIN
    speedups, equivalence = report["speedups"], report["equivalence"]
    failures = []
    if not equivalence["extend_equals_rebuild"]:
        failures.append(
            "extend-mode stream is not bit-identical to rebuild mode"
        )
    if not equivalence["stream_universe_equals_one_shot_join"]:
        failures.append(
            "streamed decided-pair universe differs from the one-shot join"
        )
    if speedups["ingest_vs_reresolve"] < resolve_min:
        failures.append(
            f"streamed ingest is only {speedups['ingest_vs_reresolve']:.2f}x "
            f"faster than re-resolve-per-batch (floor {resolve_min}x)"
        )
    if speedups["index_extend_vs_rebuild"] < index_min:
        failures.append(
            f"index extend is only {speedups['index_extend_vs_rebuild']:.2f}x "
            f"faster than per-batch rebuild (floor {index_min}x)"
        )
    return failures


__all__ = [
    "FAST_INDEX_SPEEDUP_MIN",
    "FAST_REPEATS",
    "FAST_RESOLVE_SPEEDUP_MIN",
    "INDEX_SPEEDUP_MIN",
    "REPEATS",
    "RESOLVE_SPEEDUP_MIN",
    "run_stream_ingest_benchmark",
    "stream_acceptance_failures",
    "stream_summary_rows",
]
