"""Observability overhead benchmark: tracing must be (nearly) free.

Runs one full resolution (ACMPub-scale by default, simulated crowd
included) in three interleaved modes — observability disabled, metrics
only, tracing+metrics — and writes best-of-N timings and overhead
percentages to ``benchmarks/results/BENCH_obs.json``.

Gates: identical results in all three modes, metrics-only overhead under
1%, and tracing+metrics overhead under 5%.  ``POWER_BENCH_FAST=1`` shrinks
the workload and relaxes the percentage bars (tiny runs make relative
overhead noise).

Runs two ways:

* under pytest (the benchmark suite): ``pytest benchmarks/bench_obs_overhead.py``
* standalone: ``PYTHONPATH=src python benchmarks/bench_obs_overhead.py --check``
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.experiments import emit, perf
from repro.experiments.obs_overhead import (
    obs_acceptance_failures,
    obs_summary_rows,
    run_obs_overhead_benchmark,
)

RESULT_NAME = "BENCH_obs.json"
HEADERS = ("mode", "seconds", "overhead", "spans/metrics")


def test_obs_overhead(benchmark, results):
    from conftest import run_once

    report = run_once(benchmark, run_obs_overhead_benchmark)
    perf.write_report(report, results(RESULT_NAME))
    emit("Observability overhead", HEADERS, obs_summary_rows(report))
    failures = obs_acceptance_failures(report)
    assert not failures, "; ".join(failures)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="acmpub",
                        choices=("acmpub", "cora", "restaurant"))
    parser.add_argument("--scale", type=float, default=None,
                        help="ACMPub subsample fraction (default 0.15; 0.02 in fast mode)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="best-of-N timing per mode (default 3; 1 in fast mode)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).parent / "results" / RESULT_NAME)
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero when an overhead or transparency gate fails")
    args = parser.parse_args(argv)

    report = run_obs_overhead_benchmark(
        dataset=args.dataset,
        scale=args.scale,
        repeats=args.repeats,
        seed=args.seed,
    )
    path = perf.write_report(report, args.out)
    emit("Observability overhead", HEADERS, obs_summary_rows(report))
    print(f"report -> {path}")

    failures = obs_acceptance_failures(report)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if args.check and failures:
        return 1
    if not failures:
        print("all gates passed:", json.dumps({
            "tracing_overhead_pct": report["modes"]["tracing"]["overhead_pct"],
            "metrics_overhead_pct": report["modes"]["metrics"]["overhead_pct"],
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
