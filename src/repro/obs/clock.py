"""Injectable time sources for the observability subsystem.

Every span and timed region in :mod:`repro.obs` reads time through a
:class:`Clock` instead of calling :func:`time.perf_counter` directly, for
two reasons:

* **testability** — :class:`ManualClock` lets tests assert exact span
  durations and CPU attributions without sleeping or tolerances;
* **dual time bases** — a span carries both a *wall* duration (what the
  user waits for) and a *CPU* duration (what the process burned), and the
  split between them is the first thing to look at when a stage is slow:
  ``wall >> cpu`` means blocking (I/O, pool scheduling, lock contention),
  ``wall ≈ cpu`` means compute.

:data:`SYSTEM_CLOCK` is the shared default; it is stateless, so one
instance serves every tracer in the process.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


class MonotonicClock:
    """The production clock: monotonic wall time plus process CPU time."""

    __slots__ = ()

    def wall(self) -> float:
        """Monotonic wall-clock seconds (never goes backwards)."""
        return time.perf_counter()

    def cpu(self) -> float:
        """Process-wide CPU seconds (user + system)."""
        return time.process_time()


@dataclass
class ManualClock:
    """A hand-cranked clock for deterministic tests.

    Attributes:
        wall_now: current wall reading returned by :meth:`wall`.
        cpu_now: current CPU reading returned by :meth:`cpu`.
    """

    wall_now: float = 0.0
    cpu_now: float = 0.0

    def wall(self) -> float:
        return self.wall_now

    def cpu(self) -> float:
        return self.cpu_now

    def advance(self, wall: float, cpu: float | None = None) -> None:
        """Move time forward; *cpu* defaults to advancing with the wall."""
        self.wall_now += wall
        self.cpu_now += wall if cpu is None else cpu


#: Shared stateless default clock.
SYSTEM_CLOCK = MonotonicClock()

__all__ = ["ManualClock", "MonotonicClock", "SYSTEM_CLOCK"]
