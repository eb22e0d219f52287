"""The gated benches of :mod:`repro.experiments.bench`, one test each.

``pytest benchmarks/ --benchmark-only`` runs every bench once, refreshes
its ``benchmarks/results/BENCH_<name>.json`` and fails on a missed gate.
One bench alone: ``PYTHONPATH=src python -m repro bench NAME --check``.
``POWER_BENCH_FAST=1`` runs the smoke sizes.
"""

from __future__ import annotations

import pytest

from repro.experiments import bench


@pytest.mark.parametrize("name", sorted(bench.BENCHES))
def test_bench_gates(benchmark, results, name):
    from conftest import run_once

    report = run_once(benchmark, bench.run, name)
    bench.write(report, results(f"BENCH_{name}.json"))
    print(bench.table(report))
    failures = bench.failures(report)
    assert not failures, "; ".join(failures)
