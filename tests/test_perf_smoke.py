"""Perf smoke gate: the fast paths must never be slower than the references.

Skipped unless ``POWER_BENCH_FAST=1`` (the smoke target), so the tier-1 suite
stays timing-free; ``make bench-smoke`` runs it alongside the standalone
benchmark.  The full floors (5x vectorize, 3x construct) are enforced by
``benchmarks/bench_perf_pipeline.py`` on the full-size workload.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import perf

pytestmark = pytest.mark.skipif(
    os.environ.get("POWER_BENCH_FAST") != "1",
    reason="perf smoke runs only under POWER_BENCH_FAST=1",
)


@pytest.fixture(scope="module")
def report() -> dict:
    return perf.run_pipeline_benchmark()


def test_fast_paths_beat_references(report):
    failures = perf.acceptance_failures(report)
    assert not failures, "; ".join(failures)
    for stage in report["stages"]:
        assert stage["speedup"] >= 1.0, (
            f"{stage['stage']}: fast path slower than the scalar reference "
            f"({stage['fast']['seconds']}s vs {stage['reference']['seconds']}s)"
        )


def test_stages_are_equivalent(report):
    assert all(stage["equivalent"] for stage in report["stages"])
