"""Shard-scaling harness: serial resolver vs. the sharded exact mode.

Measures three things on one ACMPub-scale workload and returns them as a
single machine-readable report (the payload of
``benchmarks/results/BENCH_shard.json``):

* the **serial baseline** — one :class:`~repro.core.PowerResolver` run;
* the **parallel fraction** — one inline (``workers=0``) sharded run whose
  executor accumulates the wall time spent inside task batches
  (:attr:`~repro.shard.executor.ExecutorStats.run_seconds`).  Every
  data-parallel piece of the exact mode (candidate-join probe ranges,
  vector chunks, propagation slices) goes through
  ``ShardExecutor.run``, so with inline execution that accumulator *is*
  the parallelizable compute and ``p = run_seconds / wall`` is a measured
  Amdahl fraction, not a guess;
* the **measured speedup curve** — timed multi-process runs at each
  requested worker count, each verified byte-identical to the serial
  baseline (candidate pairs, labels, questions, iterations, billing,
  matches, clusters) *while* being timed.  A fast-but-wrong run fails the
  bench; it cannot win it.

The acceptance gate adapts to the machine: on hosts with at least four
CPUs the **measured** speedup at 4 workers must clear the 2.5x floor; on
smaller hosts (CI runners, laptops pinned to a core) the report records
``cpu_limited: true`` and gates on the **projected** speedup
``1 / ((1 - p) + p / 4)`` from the measured fraction — plus, always, the
equivalence of every run.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from ..core import PowerConfig, PowerResolver
from ..core.resolver import ResolutionResult
from ..shard import ShardedResolver
from .perf import _bench_table
from .runner import fast_mode

#: The acceptance floor: speedup the sharded exact mode must reach at
#: :data:`TARGET_WORKERS` workers on the construction+selection pipeline.
SPEEDUP_FLOOR = 2.5

#: Worker count at which the floor is evaluated.
TARGET_WORKERS = 4

#: Default speedup-curve points (full run).
DEFAULT_WORKER_COUNTS = (1, 2, 4, 8)


def _equivalence(serial: ResolutionResult, sharded: ResolutionResult) -> dict:
    """Field-by-field equality of two resolutions (all must be True)."""
    return {
        "candidate_pairs": serial.candidate_pairs == sharded.candidate_pairs,
        "labels": serial.selection.labels == sharded.selection.labels,
        "questions": serial.questions == sharded.questions,
        "iterations": serial.iterations == sharded.iterations,
        "cost_cents": serial.cost_cents == sharded.cost_cents,
        "matches": serial.matches == sharded.matches,
        "clusters": serial.clusters == sharded.clusters,
    }


def projected_speedup(parallel_fraction: float, workers: int) -> float:
    """Amdahl's law: ``1 / ((1 - p) + p / w)``."""
    p = min(max(parallel_fraction, 0.0), 1.0)
    return 1.0 / ((1.0 - p) + p / max(1, workers))


def run_shard_benchmark(
    dataset: str = "acmpub",
    scale: float | None = None,
    worker_counts: tuple[int, ...] | None = None,
    shards: int | None = None,
    seed: int = 0,
) -> dict:
    """Time the sharded exact mode against the serial resolver.

    Args:
        dataset: ``"acmpub"`` (default), ``"cora"`` or ``"restaurant"``.
        scale: ACMPub subsample fraction; default 0.15 (0.02 under
            ``POWER_BENCH_FAST=1``).
        worker_counts: speedup-curve points; default ``(1, 2, 4, 8)``
            (``(1, 2)`` in fast mode).
        shards: tiles per parallel stage; default ``2 * workers`` per run
            (oversubscription keeps the LPT schedule's tail short).
        seed: pipeline seed shared by every run.

    Returns:
        The JSON-serializable report written to ``BENCH_shard.json``.
    """
    fast = fast_mode()
    if worker_counts is None:
        worker_counts = (1, 2) if fast else DEFAULT_WORKER_COUNTS
    table, threshold = _bench_table(dataset, scale)

    def config(num_shards: int | None = None) -> PowerConfig:
        return PowerConfig(
            seed=seed, pruning_threshold=threshold, shards=num_shards
        )

    # ---- Serial baseline -------------------------------------------------- #
    started = time.perf_counter()
    serial = PowerResolver(config()).resolve(table)
    serial_seconds = time.perf_counter() - started

    # ---- Parallel fraction (inline run, measured not guessed) ------------- #
    inline_shards = shards or 2 * TARGET_WORKERS
    started = time.perf_counter()
    inline = ShardedResolver(config(inline_shards), workers=0).resolve(table)
    inline_seconds = time.perf_counter() - started
    inline_extras = inline.selection.extras["shard"]
    parallel_seconds = float(inline_extras["executor"]["run_seconds"])
    parallel_fraction = (
        parallel_seconds / inline_seconds if inline_seconds > 0 else 0.0
    )
    inline_equivalence = _equivalence(serial, inline)

    # ---- Measured speedup curve ------------------------------------------- #
    runs: list[dict] = []
    for workers in worker_counts:
        num_shards = shards or max(2, 2 * workers)
        started = time.perf_counter()
        sharded = ShardedResolver(config(num_shards), workers=workers).resolve(
            table
        )
        seconds = time.perf_counter() - started
        equivalence = _equivalence(serial, sharded)
        extras = sharded.selection.extras["shard"]
        runs.append(
            {
                "workers": workers,
                "shards": num_shards,
                "seconds": round(seconds, 6),
                "measured_speedup": round(serial_seconds / seconds, 3)
                if seconds > 0
                else float("inf"),
                "projected_speedup": round(
                    projected_speedup(parallel_fraction, workers), 3
                ),
                "equivalent": all(equivalence.values()),
                "equivalence": equivalence,
                "timings": {
                    phase: round(value, 6)
                    for phase, value in extras["timings"].items()
                },
                "executor": extras["executor"],
            }
        )

    cpu_count = os.cpu_count() or 1
    cpu_limited = cpu_count < TARGET_WORKERS
    basis = "projected" if (cpu_limited or fast) else "measured"
    return {
        "benchmark": "shard_scaling",
        "dataset": table.name,
        "records": len(table),
        "candidate_pairs": len(serial.candidate_pairs),
        "questions": serial.questions,
        "threshold": threshold,
        "seed": seed,
        "fast_mode": fast,
        "cpu_count": cpu_count,
        "cpu_limited": cpu_limited,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "serial": {
            "seconds": round(serial_seconds, 6),
            "questions": serial.questions,
            "matches": len(serial.matches),
            "clusters": len(serial.clusters),
        },
        "parallel_fraction": round(parallel_fraction, 4),
        "parallel_seconds": round(parallel_seconds, 6),
        "serial_residue_seconds": round(inline_seconds - parallel_seconds, 6),
        "inline": {
            "seconds": round(inline_seconds, 6),
            "shards": inline_shards,
            "equivalent": all(inline_equivalence.values()),
            "equivalence": inline_equivalence,
            "timings": {
                phase: round(value, 6)
                for phase, value in inline_extras["timings"].items()
            },
        },
        "runs": runs,
        "target": {
            # Fast-mode smoke runs shrink the workload until fixed overheads
            # dominate; like BENCH_pipeline, they only gate on equivalence
            # plus a >1x projection.  Full runs enforce the real floor.
            "floor": 1.0 if fast else SPEEDUP_FLOOR,
            "at_workers": TARGET_WORKERS,
            "basis": basis,
            "projected_at_target": round(
                projected_speedup(parallel_fraction, TARGET_WORKERS), 3
            ),
        },
    }


def acceptance_failures(report: dict) -> list[str]:
    """Human-readable violations of the bench's acceptance gates.

    Every run (inline and pooled) must be byte-identical to the serial
    baseline, and the speedup at :data:`TARGET_WORKERS` workers must clear
    :data:`SPEEDUP_FLOOR` — measured wall-clock speedup on machines with
    enough CPUs, Amdahl projection from the measured parallel fraction on
    ``cpu_limited`` hosts and smoke runs.
    """
    failures: list[str] = []
    if not report["inline"]["equivalent"]:
        broken = [k for k, ok in report["inline"]["equivalence"].items() if not ok]
        failures.append(f"inline run diverges from serial: {broken}")
    for run in report["runs"]:
        if not run["equivalent"]:
            broken = [k for k, ok in run["equivalence"].items() if not ok]
            failures.append(
                f"workers={run['workers']} diverges from serial: {broken}"
            )
    target = report["target"]
    if target["basis"] == "measured":
        at_target = [
            run for run in report["runs"] if run["workers"] == target["at_workers"]
        ]
        if not at_target:
            failures.append(
                f"no measured run at {target['at_workers']} workers to gate on"
            )
        elif at_target[0]["measured_speedup"] < target["floor"]:
            failures.append(
                f"measured speedup {at_target[0]['measured_speedup']:.2f}x at "
                f"{target['at_workers']} workers is below the "
                f"{target['floor']:.1f}x floor"
            )
    else:
        if target["projected_at_target"] < target["floor"]:
            failures.append(
                f"projected speedup {target['projected_at_target']:.2f}x at "
                f"{target['at_workers']} workers (parallel fraction "
                f"{report['parallel_fraction']:.3f}) is below the "
                f"{target['floor']:.1f}x floor"
            )
    return failures


def summary_rows(report: dict) -> list[list]:
    """Rows for the plain-text summary table (one per speedup-curve run)."""
    return [
        [
            run["workers"],
            run["shards"],
            run["seconds"],
            f"{run['measured_speedup']:.2f}x",
            f"{run['projected_speedup']:.2f}x",
            "yes" if run["equivalent"] else "NO",
        ]
        for run in report["runs"]
    ]


def write_report(report: dict, path: str | Path) -> Path:
    """Persist a report as pretty-printed JSON (the BENCH_shard.json file)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n")
    return path


__all__ = [
    "SPEEDUP_FLOOR",
    "TARGET_WORKERS",
    "run_shard_benchmark",
    "projected_speedup",
    "acceptance_failures",
    "summary_rows",
    "write_report",
]
