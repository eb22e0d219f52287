#!/usr/bin/env python
"""Engine smoke: a deterministic fault-injection run, crashed and resumed.

A <60 s end-to-end check of the orchestration runtime, wired into
``make engine-smoke`` (and thereby ``make check``):

1. run a Power selection on the restaurant workload through the engine with
   the ``flaky`` fault profile, journaling to a scratch file (the
   straight-through reference);
2. re-run with ``crash_after`` so a :class:`SimulatedCrash` kills the run
   partway, leaving a partial journal (its tail torn by a few bytes to
   mimic a mid-write crash);
3. resume from that journal and assert the resumed run converges to the
   straight-through run — same matches, distinct questions, cents, and
   simulated wall clock.

Exits non-zero (with a diff summary) on any divergence, so CI catches both
determinism regressions and journal-replay drift.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.engine import CrowdEngine, EngineConfig
from repro.exceptions import SimulatedCrash
from repro.experiments.runner import make_crowd, prepare, run_method

DATASET = "restaurant"
BAND = "90"
SEED = 7
CRASH_AFTER = 40  # answered pairs before the simulated crash


def run(workload, journal_path: Path, resume: bool = False, crash_after: int | None = None):
    engine = CrowdEngine(
        EngineConfig(
            faults="flaky",
            seed=SEED,
            journal_path=journal_path,
            resume=resume,
            crash_after=crash_after,
            event_log_limit=10,
        )
    )
    crowd = make_crowd(workload, BAND, SEED)
    try:
        row = run_method("power", workload, crowd, seed=SEED, engine=engine)
    except SimulatedCrash:
        engine.journal.close()  # a crash skips the close a finished run makes
        raise
    return row, engine


def main() -> int:
    workload = prepare(DATASET)
    with tempfile.TemporaryDirectory(prefix="engine-smoke-") as scratch:
        scratch = Path(scratch)

        straight, straight_engine = run(workload, scratch / "straight.jsonl")
        telemetry = straight_engine.telemetry
        print(
            f"straight-through : F1={straight.f_measure:.3f} "
            f"questions={straight.questions} cents={straight.cost_cents} "
            f"wall-clock={telemetry.wall_clock_seconds / 60:.1f}min "
            f"re-posts={telemetry.re_posts}"
        )

        crashed_journal = scratch / "crashed.jsonl"
        try:
            run(workload, crashed_journal, crash_after=CRASH_AFTER)
        except SimulatedCrash as crash:
            print(f"crashed run      : {crash}")
        else:
            print("FAIL: crash_after did not trigger a SimulatedCrash")
            return 1
        raw = crashed_journal.read_bytes()
        crashed_journal.write_bytes(raw[:-5])  # tear the last line mid-write

        resumed, resumed_engine = run(workload, crashed_journal, resume=True)
        print(
            f"resumed run      : F1={resumed.f_measure:.3f} "
            f"questions={resumed.questions} cents={resumed.cost_cents} "
            f"wall-clock={resumed_engine.telemetry.wall_clock_seconds / 60:.1f}min"
        )

        checks = {
            "f_measure": (straight.f_measure, resumed.f_measure),
            "questions": (straight.questions, resumed.questions),
            "iterations": (straight.iterations, resumed.iterations),
            "cost_cents": (straight.cost_cents, resumed.cost_cents),
            "wall_clock": (
                round(straight_engine.telemetry.wall_clock_seconds, 6),
                round(resumed_engine.telemetry.wall_clock_seconds, 6),
            ),
        }
        failures = {k: v for k, v in checks.items() if v[0] != v[1]}
        if failures:
            for name, (expected, got) in failures.items():
                print(f"FAIL: {name}: straight-through={expected} resumed={got}")
            return 1
    print("OK: resume converged to the straight-through run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
