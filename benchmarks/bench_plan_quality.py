"""Planner-quality benchmark: regret vs exhaustive configuration search.

Times every similarity substrate on the planner-visible pipeline stages,
calibrates the host, plans, and grades the planned configuration against
the exhaustive best and worst.  Also
plans the same table under perturbed synthetic host profiles and demands
the decisions diverge.  The report lands in
``benchmarks/results/BENCH_plan.json``.

Gates: planner regret (planned / best runtime) <= 1.15x and planned
strictly faster than the worst configuration (relaxed to 1.5x / <= worst
under ``POWER_BENCH_FAST=1``, where sub-millisecond stages make ratios
noisy); synthetic-host adaptation gates are never relaxed.

Runs two ways:

* under pytest (the benchmark suite): ``pytest benchmarks/bench_plan_quality.py``
* standalone: ``PYTHONPATH=src python benchmarks/bench_plan_quality.py --check``
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.experiments import emit, perf
from repro.experiments.plan_quality import (
    plan_acceptance_failures,
    plan_summary_rows,
    run_plan_benchmark,
)

RESULT_NAME = "BENCH_plan.json"
HEADERS = ("workload", "rows", "planned", "planned ms", "best ms", "worst ms", "regret")


def test_plan_quality(benchmark, results):
    from conftest import run_once

    report = run_once(benchmark, run_plan_benchmark)
    perf.write_report(report, results(RESULT_NAME))
    emit("Planner quality", HEADERS, plan_summary_rows(report))
    failures = plan_acceptance_failures(report)
    assert not failures, "; ".join(failures)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="restaurant",
                        help="dataset for the regret grid (default: restaurant)")
    parser.add_argument("--scale", type=float, action="append", dest="scales",
                        help="subsample fraction; repeatable (default 0.5 and 1.0; "
                             "0.15 in fast mode)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="best-of-N timing repeats (default 3; 2 in fast mode)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).parent / "results" / RESULT_NAME)
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero when a regret or adaptation gate fails")
    args = parser.parse_args(argv)

    report = run_plan_benchmark(
        dataset=args.dataset,
        scales=tuple(args.scales) if args.scales else None,
        repeats=args.repeats,
        seed=args.seed,
    )
    path = perf.write_report(report, args.out)
    emit("Planner quality", HEADERS, plan_summary_rows(report))
    print(f"report -> {path}")

    failures = plan_acceptance_failures(report)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if args.check and failures:
        return 1
    if not failures:
        print("all gates passed:", json.dumps({
            "worst_regret": max(cell["regret"] for cell in report["grid"]),
            "regret_max": report["gates"]["regret_max"],
            "synthetic_substrates": sorted(
                {entry["use_batch_similarity"] for entry in report["synthetic_hosts"]}
            ),
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
