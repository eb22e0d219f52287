"""Streaming-ingest benchmark: incremental resolution must earn its keep.

Streams an ACMPub workload through :class:`repro.stream.StreamingResolver`
and times it against (a) the naive service that re-resolves the whole
growing prefix after every batch, and (b) the same stream with per-batch
token-index rebuilds instead of incremental extends.  Equivalence is
asserted while timing — bit-identical labels, billing, and clusters
between extend and rebuild modes, and a decided-pair universe equal to
the final one-shot join.  The report lands in
``benchmarks/results/BENCH_stream.json``.

Gates: streamed ingest >= 3x faster than re-resolve-per-batch, and index
extends >= 3x faster than rebuilds (relaxed under ``POWER_BENCH_FAST=1``,
where sub-second runs make the ratios noisy).  Each path is warmed up
untimed, then timed in interleaved repeats; the gates read the medians.

Runs two ways:

* under pytest (the benchmark suite): ``pytest benchmarks/bench_stream_ingest.py``
* standalone: ``PYTHONPATH=src python benchmarks/bench_stream_ingest.py --check``
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.experiments import emit, perf
from repro.experiments.stream_ingest import (
    run_stream_ingest_benchmark,
    stream_acceptance_failures,
    stream_summary_rows,
)

RESULT_NAME = "BENCH_stream.json"
HEADERS = ("strategy", "wall", "index time", "speedup")


def test_stream_ingest(benchmark, results):
    from conftest import run_once

    report = run_once(benchmark, run_stream_ingest_benchmark)
    perf.write_report(report, results(RESULT_NAME))
    emit("Streaming ingest", HEADERS, stream_summary_rows(report))
    failures = stream_acceptance_failures(report)
    assert not failures, "; ".join(failures)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=None,
                        help="ACMPub subsample fraction (default 0.15; 0.02 in fast mode)")
    parser.add_argument("--records", type=int, default=None,
                        help="cap on streamed records (default 2000; 400 in fast mode)")
    parser.add_argument("--batch-size", type=int, default=None,
                        help="records per streamed batch (default 100; 80 in fast mode)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).parent / "results" / RESULT_NAME)
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero when a speedup or equivalence gate fails")
    args = parser.parse_args(argv)

    report = run_stream_ingest_benchmark(
        scale=args.scale,
        records_cap=args.records,
        batch_size=args.batch_size,
        seed=args.seed,
    )
    path = perf.write_report(report, args.out)
    emit("Streaming ingest", HEADERS, stream_summary_rows(report))
    print(f"report -> {path}")

    failures = stream_acceptance_failures(report)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if args.check and failures:
        return 1
    if not failures:
        print("all gates passed:", json.dumps({
            "ingest_vs_reresolve": round(
                report["speedups"]["ingest_vs_reresolve"], 2
            ),
            "index_extend_vs_rebuild": round(
                report["speedups"]["index_extend_vs_rebuild"], 2
            ),
            "extend_equals_rebuild": report["equivalence"]["extend_equals_rebuild"],
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
