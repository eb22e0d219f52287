"""Fault-path tests for :class:`repro.shard.ShardExecutor`.

The executor's contract: every task is a pure function of its spec, so a
task that raises, crashes its worker process, or hangs past the timeout is
retried — and, with the retry budget exhausted, re-run inline in the
coordinator — without changing a single output byte.  These tests inject
deterministic faults (file-backed attempt counters from
:class:`repro.shard.worker.FaultSpec`) and assert byte-identical results
plus honest telemetry.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import PowerConfig, PowerResolver
from repro.exceptions import ConfigurationError
from repro.shard import FaultSpec, ShardExecutor, ShardedResolver
from repro.shard.worker import maybe_fault


def _square(task):
    """Module-level pure task (picklable): ``(value, fault) -> value**2``."""
    value, fault = task
    maybe_fault(fault)
    return value * value


def _chunk_sqrt(task):
    """Module-level pure task over one chunk: ``(start, values, fault)``."""
    start, values, fault = task
    maybe_fault(fault)
    return start, np.sqrt(values)


def _fault(tmp_path, name, **kwargs) -> FaultSpec:
    return FaultSpec(path=str(tmp_path / name), **kwargs)


class TestInlineExecution:
    def test_workers_zero_runs_inline(self):
        with ShardExecutor(workers=0) as executor:
            assert executor.run(_square, [(2, None), (3, None)]) == [4, 9]
        assert executor.stats.tasks == 2
        assert executor.stats.retries == 0

    def test_inline_retry_then_success(self, tmp_path):
        fault = _fault(tmp_path, "inline", limit=2)
        with ShardExecutor(workers=0, retries=2) as executor:
            assert executor.run(_square, [(5, fault)]) == [25]
        assert executor.stats.retries == 2

    def test_inline_retries_exhausted_raises(self, tmp_path):
        fault = _fault(tmp_path, "forever", limit=99)
        with ShardExecutor(workers=0, retries=1) as executor:
            with pytest.raises(RuntimeError, match="injected fault"):
                executor.run(_square, [(5, fault)])

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ShardExecutor(workers=-1)
        with pytest.raises(ConfigurationError):
            ShardExecutor(retries=-1)
        with pytest.raises(ConfigurationError):
            ShardExecutor(timeout=0)
        with ShardExecutor() as executor:
            with pytest.raises(ConfigurationError):
                executor.run(_square, [(1, None)], weights=[1.0, 2.0])


class TestPoolFaultPaths:
    def test_exception_is_retried(self, tmp_path):
        fault = _fault(tmp_path, "raise", limit=1, kind="raise")
        with ShardExecutor(workers=1, retries=2) as executor:
            result = executor.run(_square, [(7, fault), (8, None)])
        assert result == [49, 64]
        assert executor.stats.retries >= 1
        assert executor.stats.fallbacks == 0

    def test_worker_crash_is_retried_on_fresh_pool(self, tmp_path):
        """``os._exit`` in the worker → BrokenProcessPool → fresh pool."""
        fault = _fault(tmp_path, "crash", limit=1, kind="exit")
        with ShardExecutor(workers=1, retries=3) as executor:
            result = executor.run(_square, [(6, fault)])
        assert result == [36]
        assert executor.stats.broken_pools >= 1
        assert executor.stats.retries >= 1

    def test_exhausted_retries_fall_back_inline(self, tmp_path):
        """Crash past the retry budget → the coordinator runs the task.

        limit=2 with retries=1: pool attempts 1 and 2 die, the attempt
        budget is spent, and the inline fallback (attempt 3 > limit)
        succeeds — same bytes the healthy path would have produced.
        """
        fault = _fault(tmp_path, "fallback", limit=2, kind="exit")
        with ShardExecutor(workers=1, retries=1) as executor:
            result = executor.run(_square, [(9, fault)])
        assert result == [81]
        assert executor.stats.fallbacks == 1
        # Two pool attempts + one inline attempt were recorded in the file.
        assert os.path.getsize(str(tmp_path / "fallback")) == 3

    def test_hung_worker_is_timed_out_and_retried(self, tmp_path):
        fault = _fault(tmp_path, "hang", limit=1, kind="hang", hang_seconds=30.0)
        with ShardExecutor(workers=1, retries=2, timeout=0.5) as executor:
            result = executor.run(_square, [(4, fault)])
        assert result == [16]
        assert executor.stats.timeouts >= 1

    def test_largest_first_dispatch_keeps_task_order(self):
        with ShardExecutor(workers=1) as executor:
            tasks = [(value, None) for value in range(6)]
            weights = [1.0, 5.0, 3.0, 2.0, 4.0, 0.5]
            assert executor.run(_square, tasks, weights=weights) == [
                value * value for value in range(6)
            ]


class TestBitIdenticalUnderFaults:
    def test_vector_chunks_survive_crashes_byte_identical(self, tmp_path):
        """Crashing workers must not change one byte of the stacked chunks."""
        values = np.random.default_rng(0).random(1000)
        bounds = np.linspace(0, len(values), 5).astype(int)
        tasks = [
            (
                int(lo),
                values[lo:hi],
                _fault(tmp_path, f"chunk{index}", limit=1, kind="exit")
                if index % 2 == 0
                else None,
            )
            for index, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
        ]
        with ShardExecutor(workers=2, retries=2) as executor:
            chunks = executor.run(_chunk_sqrt, tasks)
        assert [start for start, _ in chunks] == bounds[:-1].tolist()
        merged = np.concatenate([chunk for _, chunk in chunks])
        assert merged.tobytes() == np.sqrt(values).tobytes()
        assert executor.stats.broken_pools >= 1

    def test_resolver_with_processes_matches_serial(self, small_table):
        """The kept ``ShardedResolver(workers=2)`` name is the serial
        resolver: same transcript, labels, bill, matches and clusters."""
        serial = PowerResolver(PowerConfig(seed=0)).resolve(small_table)
        sharded = ShardedResolver(PowerConfig(seed=0), workers=2).resolve(small_table)
        assert sharded.selection.state.asked_order == serial.selection.state.asked_order
        assert sharded.questions == serial.questions
        assert sharded.iterations == serial.iterations
        assert sharded.cost_cents == serial.cost_cents
        assert sharded.selection.labels == serial.selection.labels
        assert sharded.matches == serial.matches
        assert sharded.clusters == serial.clusters
