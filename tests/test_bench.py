"""The bench harness: runner, report, gates and CLI, on a stub bench.

The stub's sides advance a fake clock instead of doing work, so every
timing here is exact and the tests run in milliseconds.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext

import pytest

from repro.cli import main
from repro.experiments import bench
from repro.experiments.bench import Bench, Outcome, Ratio, Side, Size


class FakeClock:
    """``perf_counter`` stand-in that only moves when a side says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advancing(self, seconds: float):
        """A call that takes *seconds* on this clock."""

        def call():
            self.now += seconds

        return call


@pytest.fixture()
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(bench, "perf_counter", fake)
    return fake


def stepping_side(name, clock, durations, calls=None):
    """A side whose successive calls take *durations* seconds each."""
    remaining = list(durations)

    def call():
        if calls is not None:
            calls.append(name)
        clock.now += remaining.pop(0)
        return name

    return Side.plain(name, call)


class TestMeasure:
    def test_warm_up_run_is_not_reported(self, clock):
        timings = bench.measure([stepping_side("a", clock, [100.0, 1.0, 2.0, 3.0])], 3)
        assert timings["a"].runs == [1.0, 2.0, 3.0]
        assert timings["a"].result == "a"

    def test_sides_rotate_between_repeats(self, clock):
        calls: list[str] = []
        sides = [stepping_side(name, clock, [0.0] * 4, calls) for name in "abc"]
        bench.measure(sides, 3)
        assert calls == list("abc" + "abc" + "bca" + "cab")

    def test_prepare_runs_outside_the_timer(self, clock):
        events = []

        @contextmanager
        def prepare():
            clock.now += 50.0
            events.append("enter")
            yield clock.advancing(1.0)
            clock.now += 50.0
            events.append("exit")

        timings = bench.measure([Side("a", prepare)], 2)
        assert timings["a"].runs == [1.0, 1.0]
        assert events == ["enter", "exit"] * 3

    def test_median_and_quartiles_come_from_the_runs(self, clock):
        timings = bench.measure([stepping_side("a", clock, [9.0, 1.0, 2.0, 3.0, 10.0])], 4)
        entry = timings["a"].as_dict()
        assert entry["runs"] == [1.0, 2.0, 3.0, 10.0]
        assert entry["seconds"] == 2.5
        assert entry["quartiles"] == [1.75, 4.75]


def stub_bench(clock, check=True, **bars):
    """Sides ``slow`` (8 s for 2 units) and ``fast`` (1 s): ratio 4.0.

    *bars* may hold the ``floor`` and ``ceiling`` of the full size's
    ``speedup`` ratio; the smoke size has neither.
    """

    def run(workload, gates):
        timings = bench.measure(
            [
                Side("slow", lambda: nullcontext(clock.advancing(8.0)), units=2),
                Side.plain("fast", clock.advancing(1.0)),
            ],
            workload["repeats"],
        )
        return Outcome(
            timings,
            ratios={"speedup": Ratio("slow", "fast", **gates)},
            checks={"agrees": check},
            details={"note": "stub"},
        )

    return Bench(run, full=Size({"repeats": 3}, bars), smoke=Size({"repeats": 1}, {}))


@pytest.fixture()
def register(monkeypatch):
    monkeypatch.delenv("POWER_BENCH_FAST", raising=False)

    def put(stub):
        monkeypatch.setitem(bench.BENCHES, "stub", stub)

    return put


class TestReport:
    def test_report_holds_the_one_schema(self, clock, register):
        register(stub_bench(clock, floor=1.5))
        report = bench.run("stub")
        assert list(report) == [
            "benchmark", "fast_mode", "python", "numpy", "workload",
            "sides", "ratios", "checks", "details",
        ]
        assert report["benchmark"] == "stub" and report["fast_mode"] is False
        assert report["workload"] == {"repeats": 3}
        assert report["sides"]["slow"]["runs"] == [8.0] * 3
        assert report["ratios"]["speedup"] == {
            "numerator": "slow", "denominator": "fast", "value": 4.0,
            "floor": 1.5, "ceiling": None,
        }
        assert report["checks"] == {"agrees": True}
        assert report["details"] == {"note": "stub"}
        assert bench.failures(report) == []

    def test_fast_mode_picks_the_smoke_size(self, clock, register, monkeypatch):
        register(stub_bench(clock, floor=100.0))
        monkeypatch.setenv("POWER_BENCH_FAST", "1")
        report = bench.run("stub")
        assert report["fast_mode"] is True
        assert report["sides"]["fast"]["runs"] == [1.0]
        assert report["ratios"]["speedup"]["floor"] is None

    def test_ratio_below_its_floor_fails(self, clock, register):
        register(stub_bench(clock, floor=5.0))
        [failure] = bench.failures(bench.run("stub"))
        assert "speedup" in failure and "below the 5.0x floor" in failure

    def test_ratio_above_its_ceiling_fails(self, clock, register):
        register(stub_bench(clock, ceiling=3.0))
        [failure] = bench.failures(bench.run("stub"))
        assert "speedup" in failure and "above the 3.0x ceiling" in failure

    def test_false_check_fails(self, clock, register):
        register(stub_bench(clock, check=False))
        assert bench.failures(bench.run("stub")) == ["agrees: check failed"]

    def test_table_marks_failed_gates(self, clock, register):
        register(stub_bench(clock, floor=5.0))
        text = bench.table(bench.run("stub"))
        speedup = next(line for line in text.splitlines() if line.startswith("speedup"))
        assert "4.000x" in speedup and speedup.rstrip().endswith("FAIL")
        agrees = next(line for line in text.splitlines() if line.startswith("agrees"))
        assert agrees.rstrip().endswith("ok")


class TestCli:
    def test_check_exits_1_on_a_failed_gate(self, clock, register, tmp_path, capsys):
        register(stub_bench(clock, floor=5.0))
        out = tmp_path / "stub.json"
        assert main(["bench", "stub", "--check", "--out", str(out)]) == 1
        assert "FAIL: speedup" in capsys.readouterr().err
        assert json.loads(out.read_text())["ratios"]["speedup"]["value"] == 4.0

    def test_check_exits_0_when_every_gate_passes(self, clock, register, tmp_path):
        register(stub_bench(clock, floor=1.5))
        assert main(["bench", "stub", "--check", "--out", str(tmp_path / "s.json")]) == 0

    def test_without_check_a_failure_only_prints(self, clock, register, tmp_path, capsys):
        register(stub_bench(clock, check=False))
        assert main(["bench", "stub", "--out", str(tmp_path / "s.json")]) == 0
        assert "FAIL: agrees: check failed" in capsys.readouterr().err
