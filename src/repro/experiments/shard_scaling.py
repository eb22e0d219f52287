"""Shard-scaling harness: serial resolver vs. the sharded exact mode.

Measures one ACMPub-scale workload and returns a single machine-readable
report (the payload of ``benchmarks/results/BENCH_shard.json``):

* the **serial baseline** — one :class:`~repro.core.PowerResolver` run,
  after one untimed warm-up resolve;
* the **measured speedup curve** — one timed
  :class:`~repro.shard.ShardedResolver` exact-mode run at each requested
  worker count, each verified byte-identical to the serial baseline
  (candidate pairs, labels, questions, iterations, billing, matches,
  clusters) *while* being timed.  A fast-but-wrong run fails the bench; it
  cannot win it.

Exact mode runs the serial pipeline in the calling process and starts no
worker, so every point of the curve does the baseline's work and reads
about 1x.  The gate is measured only: the wall-clock speedup at
:data:`TARGET_WORKERS` workers must clear :data:`SPEEDUP_FLOOR`, whatever
the host's CPU count (recorded as ``cpu_count``), plus, always, the
equivalence of every run.  No projection gates it.
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

#: The acceptance floor: measured speedup the sharded exact mode must reach
#: at :data:`TARGET_WORKERS` workers.
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


def run_shard_benchmark(
    dataset: str = "acmpub",
    scale: float | None = None,
    worker_counts: tuple[int, ...] | None = None,
    seed: int = 0,
) -> dict:
    """Time the sharded exact mode against the serial resolver.

    Args:
        dataset: ``"acmpub"`` (default), ``"cora"`` or ``"restaurant"``.
        scale: ACMPub subsample fraction; default 0.15 (0.02 under
            ``POWER_BENCH_FAST=1``).
        worker_counts: speedup-curve points; default ``(1, 2, 4, 8)``
            (``(1, 4)`` in fast mode).
        seed: pipeline seed shared by every run.

    Returns:
        The JSON-serializable report written to ``BENCH_shard.json``.
    """
    fast = fast_mode()
    if worker_counts is None:
        worker_counts = (1, TARGET_WORKERS) if fast else DEFAULT_WORKER_COUNTS
    table, threshold = _bench_table(dataset, scale)
    config = PowerConfig(seed=seed, pruning_threshold=threshold)
    # One untimed resolve first, so no timed run pays for warming caches.
    PowerResolver(config).resolve(table)

    started = time.perf_counter()
    serial = PowerResolver(config).resolve(table)
    serial_seconds = time.perf_counter() - started

    runs: list[dict] = []
    for workers in worker_counts:
        started = time.perf_counter()
        sharded = ShardedResolver(config, workers=workers).resolve(table)
        seconds = time.perf_counter() - started
        equivalence = _equivalence(serial, sharded)
        runs.append(
            {
                "workers": workers,
                "seconds": round(seconds, 6),
                "measured_speedup": round(serial_seconds / seconds, 3)
                if seconds > 0
                else float("inf"),
                "equivalent": all(equivalence.values()),
                "equivalence": equivalence,
            }
        )

    return {
        "benchmark": "shard_scaling",
        "dataset": table.name,
        "records": len(table),
        "candidate_pairs": len(serial.candidate_pairs),
        "questions": serial.questions,
        "threshold": threshold,
        "seed": seed,
        "fast_mode": fast,
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "serial": {
            "seconds": round(serial_seconds, 6),
            "questions": serial.questions,
            "matches": len(serial.matches),
            "clusters": len(serial.clusters),
        },
        "runs": runs,
        "target": {
            "floor": 1.0 if fast else SPEEDUP_FLOOR,
            "at_workers": TARGET_WORKERS,
            "basis": "measured",
        },
    }


def acceptance_failures(report: dict) -> list[str]:
    """Human-readable violations of the bench's acceptance gates.

    Every run must be byte-identical to the serial baseline, and the
    measured wall-clock speedup at :data:`TARGET_WORKERS` workers must
    clear the report's floor.
    """
    failures: list[str] = []
    for run in report["runs"]:
        if not run["equivalent"]:
            broken = [k for k, ok in run["equivalence"].items() if not ok]
            failures.append(
                f"workers={run['workers']} diverges from serial: {broken}"
            )
    target = report["target"]
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
    return failures


def summary_rows(report: dict) -> list[list]:
    """Rows for the plain-text summary table (one per speedup-curve run)."""
    return [
        [
            run["workers"],
            run["seconds"],
            f"{run['measured_speedup']:.2f}x",
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
    "acceptance_failures",
    "summary_rows",
    "write_report",
]
