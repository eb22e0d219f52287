"""Check-result bookkeeping for the verification subsystem.

Every oracle, invariant, and metamorphic property reports through the same
tiny vocabulary: a named :class:`CheckResult` that either passed or carries
a human-readable reason, collected into a :class:`VerificationReport`.
Checks are written as plain functions raising
:class:`~repro.exceptions.VerificationError` on violation; :func:`run_check`
adapts them into results so one failing check never hides the others.
"""

from __future__ import annotations

import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass, field

from ..exceptions import VerificationError


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification check."""

    name: str
    passed: bool
    detail: str = ""
    seconds: float = 0.0

    def __str__(self) -> str:
        status = "ok  " if self.passed else "FAIL"
        line = f"[{status}] {self.name} ({self.seconds * 1000:.0f} ms)"
        if not self.passed and self.detail:
            line += f"\n       {self.detail}"
        return line


@dataclass
class VerificationReport:
    """An ordered collection of check results with a pass/fail verdict."""

    results: list[CheckResult] = field(default_factory=list)

    def add(self, result: CheckResult) -> CheckResult:
        self.results.append(result)
        return result

    def extend(self, other: "VerificationReport") -> None:
        self.results.extend(other.results)

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.results)

    @property
    def failures(self) -> list[CheckResult]:
        return [result for result in self.results if not result.passed]

    def summary(self) -> str:
        lines = [str(result) for result in self.results]
        verdict = (
            f"{len(self.results)} checks, all passed"
            if self.passed
            else f"{len(self.results)} checks, {len(self.failures)} FAILED"
        )
        return "\n".join(lines + [verdict])


def run_check(report: VerificationReport, name: str, check: Callable[[], None]) -> CheckResult:
    """Run *check*, recording a pass, a verification failure, or a crash.

    Unexpected exceptions (not :class:`VerificationError`) are recorded as
    failures too — a crashed oracle must never read as a green light.
    """
    started = time.perf_counter()
    try:
        check()
    except VerificationError as error:
        result = CheckResult(
            name=name,
            passed=False,
            detail=str(error),
            seconds=time.perf_counter() - started,
        )
    except Exception as error:  # noqa: BLE001 - a crashed check is a failed check
        result = CheckResult(
            name=name,
            passed=False,
            detail=f"check crashed: {type(error).__name__}: {error}\n"
            + traceback.format_exc(limit=3),
            seconds=time.perf_counter() - started,
        )
    else:
        result = CheckResult(
            name=name, passed=True, seconds=time.perf_counter() - started
        )
    return report.add(result)
