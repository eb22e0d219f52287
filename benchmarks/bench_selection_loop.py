"""Selection-loop benchmark: incremental engine vs per-round scratch.

Runs the full ask/color loop of the path-cover selectors on an ACMPub-scale
dominance graph twice — once through the incremental engine (packed-bitset
reachability + warm-started path covers) and once forced onto the scratch
reference (per-round ``restricted_adjacency`` + Hopcroft-Karp from empty) —
verifies the two transcripts are byte-identical inline, and writes the
machine-readable report (per-selector speedups, per-round phase splits, and
a rounds-vs-n scaling sweep) to ``benchmarks/results/BENCH_selection.json``.

Runs two ways:

* under pytest (the benchmark suite): ``pytest benchmarks/bench_selection_loop.py``
* standalone: ``PYTHONPATH=src python benchmarks/bench_selection_loop.py --check``

``POWER_BENCH_FAST=1`` shrinks the workload to a smoke run whose gate only
requires the incremental engine to win; the full run enforces the 3x floor.
Both sides run once untimed, then in turn for every timed repeat (5 in fast
mode, 3 in full mode); the gates read the medians, and the report keeps
the quartiles and every run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.experiments import emit, perf

RESULT_NAME = "BENCH_selection.json"
HEADERS = ("selector", "rounds", "scratch s", "incremental s", "speedup", "equivalent")


def test_selection_loop(benchmark, results):
    from conftest import run_once

    report = run_once(benchmark, perf.run_selection_benchmark)
    perf.write_report(report, results(RESULT_NAME))
    emit("Selection-loop speedups", HEADERS, perf.selection_summary_rows(report))
    failures = perf.selection_acceptance_failures(report)
    assert not failures, "; ".join(failures)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="acmpub",
                        choices=("acmpub", "cora", "restaurant"))
    parser.add_argument("--scale", type=float, default=None,
                        help="ACMPub subsample fraction (default 0.15; 0.02 in fast mode)")
    parser.add_argument("--max-vertices", type=int, default=None,
                        help="graph-size cap (default 2500; 300 in fast mode)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed runs per side after one untimed warm-up, "
                             "interleaved; the gate reads their medians "
                             "(default 3; 5 in fast mode)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).parent / "results" / RESULT_NAME)
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero when the speedup floor or equivalence gate fails")
    args = parser.parse_args(argv)

    report = perf.run_selection_benchmark(
        dataset=args.dataset,
        scale=args.scale,
        max_vertices=args.max_vertices,
        repeats=args.repeats,
        seed=args.seed,
    )
    path = perf.write_report(report, args.out)
    emit("Selection-loop speedups", HEADERS, perf.selection_summary_rows(report))
    print(f"report -> {path}")

    failures = perf.selection_acceptance_failures(report)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if args.check and failures:
        return 1
    if not failures:
        print("all gates passed:",
              json.dumps({s["selector"]: f"{s['speedup']}x"
                          for s in report["selectors"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
