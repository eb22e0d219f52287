"""Checks of the end-to-end benchmark itself, on its smoke-sized inputs.

Outside tier-1 (``testpaths`` is ``tests``); run with::

    python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import subprocess
import sys

import harness
import pytest
from tracing import read_trace


def once(workload: str, seed: int = 0, trace: int = 0):
    """``(exit code, result line, digest)`` of one smoke-sized run."""
    proc = subprocess.run(
        [
            sys.executable,
            str(harness.HERE / "harness.py"),
            "once",
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            "0",
            "--trace",
            str(trace),
            "--smoke",
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("digest: "))
    return proc.returncode, json.loads(lines[-1]), digest


@pytest.fixture(scope="module")
def declared():
    return json.loads(harness.BENCHMARK.read_text())


@pytest.fixture(scope="module")
def runs():
    return {
        (workload, trace): once(workload, trace=trace)
        for workload in harness.WORKLOADS
        for trace in (0, 1)
    }


def test_harness_and_benchmark_json_declare_the_same_names(declared):
    assert [w["name"] for w in declared["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == harness.E2E_UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == harness.LAYER_UNITS


@pytest.mark.parametrize("workload", harness.WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(
    runs, declared, workload, trace, section
):
    code, line, _ = runs[workload, trace]
    assert code == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    emitted = {name: value["unit"] for name, value in line["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared[section]}


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_end_to_end_metrics_are_never_zero(runs, workload):
    _, line, _ = runs[workload, 0]
    assert all(value["value"] > 0 for value in line["metrics"].values())


@pytest.mark.parametrize("workload", ["resolve-acmpub", "resolve-cora"])
def test_stages_cover_the_resolve(runs, workload):
    _, line, _ = runs[workload, 1]
    assert 0.95 <= line["metrics"]["bench.stage_coverage"]["value"] <= 1.05


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_trace_file_holds_the_spans(runs, workload):
    spans = read_trace(harness.RESULTS / f"trace-{workload}.jsonl")
    assert {"run", "id", "parent", "name", "start", "end"} <= set(spans[0])
    assert any(span["name"] == "bench.unit" for span in spans)


def test_traced_and_untraced_runs_agree(runs):
    for workload in harness.WORKLOADS:
        assert runs[workload, 0][2] == runs[workload, 1][2]
    # Exact-mode sharding is bit-identical to the serial resolve.
    assert runs["shard-acmpub", 0][2] == runs["resolve-acmpub", 0][2]


def test_another_seed_changes_the_inputs_and_still_passes(runs):
    code, line, digest = once("resolve-cora", seed=1)
    assert code == 0 and line["correct"]
    assert digest != runs["resolve-cora", 0][2]


def test_a_wrong_pinned_digest_fails_every_operation(tmp_path, monkeypatch, capsys):
    baseline = json.loads(harness.BASELINE.read_text())
    baseline["pinned"]["digests"]["resolve-cora@smoke"] = "0" * 64
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(baseline))
    monkeypatch.setattr(harness, "BASELINE", path)
    monkeypatch.setenv("REPRO_PLAN_PROFILE", "")
    monkeypatch.setattr(sys, "path", list(sys.path))
    code = harness.main(
        ["once", "--workload", "resolve-cora", "--seconds", "0", "--smoke"]
    )
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert not line["correct"]
    assert line["failed"] == line["attempted"] >= 1
