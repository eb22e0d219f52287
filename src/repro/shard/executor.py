"""Process-pool scheduling with retries, timeouts, and in-process fallback.

:class:`ShardExecutor` is the scheduling layer of :mod:`repro.shard`: it
runs picklable task specs through a
:class:`concurrent.futures.ProcessPoolExecutor` with

* **largest-shard-first dispatch** — tasks are submitted in descending
  weight order (classic LPT), so the heaviest work starts first and the
  tail of the schedule is short;
* **per-task timeout and retry** — a task that raises, times out, or takes
  its worker process down (``BrokenProcessPool``) is re-submitted up to
  ``retries`` times on a (recreated, if necessary) pool;
* **in-process fallback** — a task that exhausts its retries runs inline
  in the coordinator.  Because every task is a pure function of its spec,
  retries and fallbacks are not best-effort recovery: they produce the
  *same bytes* the healthy path would have produced.

``workers=0`` short-circuits to fully inline execution (no processes, no
pickling), so the tests can show that the task decomposition, not
multiprocessing luck, carries the equivalence.

Nothing in :mod:`repro` runs tasks through the executor.  It stays, with
its fault-path tests, because the end-to-end benchmark's tracing wraps
:meth:`ShardExecutor.run` by name (DESIGN.md §10).
"""

from __future__ import annotations

import gc
import time
from collections.abc import Callable, Sequence
from concurrent.futures import Future, ProcessPoolExecutor, TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from ..exceptions import ConfigurationError
from ..obs import instrument as obs_instrument


class _TracedTask:
    """Picklable wrapper that records a task's spans/metrics in the worker.

    The worker process starts with observability disabled (the coordinator's
    handle is not inherited through pickling), so the wrapper activates a
    fresh handle mirroring the coordinator's flags, runs the task under a
    ``shard.task`` root span, and ships ``(result, spans, registry)`` back.
    The coordinator grafts the spans **in task order** — completion order
    never shows in the merged trace — and folds the registries with the
    order-free metric merge.  Inline execution (``workers=0``, retry
    fallbacks) goes through the same wrapper, so a fallback task's spans
    land in the same place a healthy worker's would.
    """

    __slots__ = ("fn", "tracing", "metrics")

    def __init__(self, fn: Callable, tracing: bool, metrics: bool) -> None:
        self.fn = fn
        self.tracing = tracing
        self.metrics = metrics

    def __call__(self, task):
        obs = obs_instrument.Observability(
            tracing=self.tracing, metrics=self.metrics
        )
        with obs_instrument.activated(obs):
            with obs.tracer.span("shard.task"):
                result = self.fn(task)
        return result, obs.tracer.export(), obs.registry


@dataclass
class ExecutorStats:
    """Fault-handling telemetry for one executor lifetime.

    ``run_seconds`` accumulates the wall time spent inside
    :meth:`ShardExecutor.run` (exported as the
    ``repro_shard_run_seconds_total`` metric).
    """

    tasks: int = 0
    retries: int = 0
    timeouts: int = 0
    broken_pools: int = 0
    fallbacks: int = 0
    run_seconds: float = 0.0
    errors: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "tasks": self.tasks,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "broken_pools": self.broken_pools,
            "fallbacks": self.fallbacks,
            "run_seconds": round(self.run_seconds, 6),
            "errors": list(self.errors),
        }


class ShardExecutor:
    """Run pure task specs across worker processes, surviving faults.

    Args:
        workers: process-pool size; ``0`` runs every task inline in the
            calling process (deterministic and dependency-free).
        retries: re-submissions per task before the in-process fallback
            (crashes, exceptions, and timeouts all count as one attempt).
        timeout: per-task seconds before a worker is declared hung and its
            pool is torn down; ``None`` disables the timeout.
        mp_context: :mod:`multiprocessing` start-method name; ``None``
            picks the platform default (``fork`` on Linux, which shares
            the parent's imports for free).
    """

    def __init__(
        self,
        workers: int = 0,
        retries: int = 2,
        timeout: float | None = None,
        mp_context: str | None = None,
    ) -> None:
        if workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {workers}")
        if retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {retries}")
        if timeout is not None and timeout <= 0:
            raise ConfigurationError(f"timeout must be > 0 or None, got {timeout}")
        self.workers = workers
        self.retries = retries
        self.timeout = timeout
        self._mp_context = mp_context
        self._pool: ProcessPoolExecutor | None = None
        self.stats = ExecutorStats()

    # ------------------------------------------------------------------ #
    # Pool lifecycle
    # ------------------------------------------------------------------ #

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            import multiprocessing

            context = (
                multiprocessing.get_context(self._mp_context)
                if self._mp_context
                else None
            )
            # A forked worker inherits the coordinator's heap; freezing it
            # keeps the worker's garbage collector from walking (and so
            # copy-on-write faulting) every inherited object.
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=context, initializer=gc.freeze
            )
        return self._pool

    def _teardown_pool(self, kill: bool) -> None:
        """Shut the pool down; *kill* terminates worker processes first.

        Killing is the only way to reclaim a **hung** worker: cancelling a
        running future is a no-op, so a timed-out task would otherwise pin
        its process forever.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if kill:
            processes = getattr(pool, "_processes", None) or {}
            for process in list(processes.values()):
                try:
                    process.terminate()
                except Exception:  # pragma: no cover - already-dead process
                    pass
        pool.shutdown(wait=not kill, cancel_futures=True)

    def close(self) -> None:
        """Release the worker pool (idempotent)."""
        self._teardown_pool(kill=False)

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Running tasks
    # ------------------------------------------------------------------ #

    def run(
        self,
        fn: Callable,
        tasks: Sequence,
        weights: Sequence[float] | None = None,
    ) -> list:
        """Run ``fn(task)`` for every task; results in **task order**.

        Tasks are dispatched largest-weight-first (ties: task order).  Any
        task failure — exception, worker crash, timeout — is retried up to
        ``retries`` times, then the task runs inline.  The returned list is
        ordered like *tasks* regardless of completion order.
        """
        tasks = list(tasks)
        if weights is not None and len(weights) != len(tasks):
            raise ConfigurationError(
                f"{len(tasks)} tasks but {len(weights)} weights"
            )
        self.stats.tasks += len(tasks)
        if not tasks:
            return []
        obs = obs_instrument.current()
        if obs.enabled:
            fn = _TracedTask(fn, tracing=obs.tracing, metrics=obs.metrics)
        started = time.perf_counter()
        try:
            if self.workers <= 0:
                results = [self._run_inline(fn, task) for task in tasks]
            else:
                order = sorted(
                    range(len(tasks)),
                    key=lambda index: (
                        -(weights[index] if weights is not None else 0),
                        index,
                    ),
                )
                futures: dict[int, Future] = {}
                pool = self._ensure_pool()
                for index in order:
                    futures[index] = pool.submit(fn, tasks[index])
                results = [None] * len(tasks)
                for index in order:
                    results[index] = self._collect(fn, tasks, futures, index)
            if obs.enabled:
                results = self._absorb_traced(obs, results)
            return results
        finally:
            self.stats.run_seconds += time.perf_counter() - started

    def _absorb_traced(self, obs, results: list) -> list:
        """Unwrap ``_TracedTask`` payloads: graft spans, merge registries.

        Iterating *results* walks tasks in task order, so the grafted trace
        and the merged registry are identical no matter which worker
        finished first.
        """
        unwrapped = []
        for index, payload in enumerate(results):
            result, spans, registry = payload
            obs.tracer.graft(spans, task=index)
            if obs.metrics:
                obs.registry.merge(registry)
            unwrapped.append(result)
        return unwrapped

    def _run_inline(self, fn: Callable, task) -> object:
        """Inline execution with the same retry budget as the pool path."""
        attempt = 0
        while True:
            try:
                return fn(task)
            except Exception as error:  # noqa: BLE001 - retried, then raised
                attempt += 1
                if attempt > self.retries:
                    raise
                self.stats.retries += 1
                self.stats.errors.append(f"inline {type(error).__name__}: {error}")

    def _collect(self, fn: Callable, tasks: Sequence, futures: dict, index: int):
        """Await one task's future, retrying / falling back on failure."""
        attempt = 0
        while True:
            try:
                return futures[index].result(timeout=self.timeout)
            except Exception as error:  # noqa: BLE001 - classified below
                attempt += 1
                if isinstance(error, FutureTimeout):
                    self.stats.timeouts += 1
                    # A hung worker never yields its process back; kill the
                    # pool and let in-flight siblings retry on a fresh one.
                    self._teardown_pool(kill=True)
                elif isinstance(error, BrokenProcessPool):
                    self.stats.broken_pools += 1
                    self._teardown_pool(kill=True)
                self.stats.errors.append(f"{type(error).__name__}: {error}")
                if attempt > self.retries:
                    self.stats.fallbacks += 1
                    return fn(tasks[index])  # pure task: inline == worker
                self.stats.retries += 1
                futures[index] = self._ensure_pool().submit(fn, tasks[index])


__all__ = ["ExecutorStats", "ShardExecutor"]
