"""Pipeline fast-path benchmark: prune → vectorize → construct speedups.

Times every stage's scalar reference against its vectorized fast path on an
ACMPub-scale workload, verifies equivalence inline, and writes the
machine-readable report to ``benchmarks/results/BENCH_pipeline.json``.

Runs two ways:

* under pytest (the benchmark suite): ``pytest benchmarks/bench_perf_pipeline.py``
* standalone: ``PYTHONPATH=src python benchmarks/bench_perf_pipeline.py --check``

``POWER_BENCH_FAST=1`` shrinks the workload to a <60s smoke run whose gate
only requires the fast paths to win; the full run enforces the 5x vectorize
and 3x construct floors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.experiments import emit, perf

RESULT_NAME = "BENCH_pipeline.json"
HEADERS = ("stage", "reference", "fast", "ref s", "fast s", "speedup", "equivalent")


def test_perf_pipeline(benchmark, results):
    from conftest import run_once

    report = run_once(benchmark, perf.run_pipeline_benchmark)
    perf.write_report(report, results(RESULT_NAME))
    emit("Pipeline fast-path speedups", HEADERS, perf.summary_rows(report))
    failures = perf.acceptance_failures(report)
    assert not failures, "; ".join(failures)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="acmpub",
                        choices=("acmpub", "cora", "restaurant"))
    parser.add_argument("--scale", type=float, default=None,
                        help="ACMPub subsample fraction (default 0.15; 0.02 in fast mode)")
    parser.add_argument("--similarity", default="bigram",
                        choices=("bigram", "jaccard", "edit"))
    parser.add_argument("--repeats", type=int, default=None,
                        help="best-of-N timing (default 3; 1 in fast mode)")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).parent / "results" / RESULT_NAME)
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero when a speedup floor or equivalence gate fails")
    args = parser.parse_args(argv)

    report = perf.run_pipeline_benchmark(
        dataset=args.dataset,
        scale=args.scale,
        similarity=args.similarity,
        repeats=args.repeats,
    )
    path = perf.write_report(report, args.out)
    emit("Pipeline fast-path speedups", HEADERS, perf.summary_rows(report))
    print(f"report -> {path}")

    failures = perf.acceptance_failures(report)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if args.check and failures:
        return 1
    if not failures:
        print("all gates passed:",
              json.dumps({s["stage"]: f"{s['speedup']}x" for s in report["stages"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
