"""Deterministic fault injection for :class:`~repro.shard.executor.ShardExecutor`.

:class:`FaultSpec` is the hook the executor's fault-path tests use: a task
spec can carry one, and the first ``limit`` attempts of that task raise,
kill the worker process, or hang.  Because a task is a pure function of
its spec, the executor's retries and in-process fallback must then give
the same result the healthy path would have.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass

from ..exceptions import ConfigurationError

#: Fault kinds understood by :func:`maybe_fault`.
FAULT_KINDS = ("raise", "exit", "hang")


@dataclass(frozen=True)
class FaultSpec:
    """Deterministic fault injection for one task.

    The attempt counter lives in a *file* (one byte appended per attempt),
    so it survives worker-process crashes — which is exactly the failure
    mode being simulated.  Attempts ``1..limit`` fail; attempt ``limit+1``
    (and later) succeed.

    Attributes:
        path: counter file, unique per injected task.
        limit: how many attempts fail before the task starts succeeding.
        kind: ``"raise"`` (exception), ``"exit"`` (hard process death →
            ``BrokenProcessPool``), or ``"hang"`` (sleep past the timeout).
        hang_seconds: how long a ``"hang"`` fault sleeps.
    """

    path: str
    limit: int = 1
    kind: str = "raise"
    hang_seconds: float = 60.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if self.limit < 0:
            raise ConfigurationError(f"fault limit must be >= 0, got {self.limit}")


def maybe_fault(fault: FaultSpec | None) -> None:
    """Fail according to *fault* while its attempt budget lasts.

    A ``"exit"`` fault only hard-kills *worker* processes (detected via
    :func:`multiprocessing.parent_process`); when the task runs inline in
    the coordinator it degrades to an exception, so fault-path tests can
    never take the test runner down with them.
    """
    if fault is None:
        return
    with open(fault.path, "ab") as handle:
        handle.write(b"x")
        handle.flush()
        attempt = handle.tell()
    if attempt > fault.limit:
        return
    if fault.kind == "hang":
        time.sleep(fault.hang_seconds)
        return
    if fault.kind == "exit" and multiprocessing.parent_process() is not None:
        os._exit(13)
    raise RuntimeError(
        f"injected fault ({fault.kind}, attempt {attempt}/{fault.limit})"
    )


__all__ = ["FAULT_KINDS", "FaultSpec", "maybe_fault"]
