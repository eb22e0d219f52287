"""``repro.shard``: the serial resolver and task runner under old names.

The end-to-end benchmark still builds ``ShardedResolver(config,
workers=2)`` and wraps ``ShardExecutor.run``.  These tests pin what those
names now are: neither starts a worker process, ``ShardedResolver`` runs
exactly ``PowerResolver.resolve``, transcript for transcript, budget
included, and ``ShardExecutor.run`` calls each task in the calling
process, in task order.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing

import pytest

from repro.core import PowerConfig, PowerResolver
from repro.shard import ShardedResolver, ShardExecutor


def _refuse_process(*args, **kwargs):
    raise AssertionError("a worker process was started")


@pytest.fixture()
def no_process_pool(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _refuse_process)
    monkeypatch.setattr(multiprocessing.Process, "start", _refuse_process)


def _selector_run(table, config, budget):
    """The serial stages by hand, ending in ``QuestionSelector.run``."""
    resolver = PowerResolver(config)
    pairs = resolver.candidate_pairs(table)
    graph = resolver.build_graph(table, pairs)
    session = resolver.simulated_crowd(table, pairs).session()
    return resolver.make_selector().run(graph, session, budget=budget)


class TestExactMode:
    """"Exact mode" was the sharded name of the serial pipeline; it is now
    the only behaviour ``ShardedResolver`` has."""

    def test_two_workers_start_no_process(self, small_table, no_process_pool):
        config = PowerConfig(seed=0)
        sharded = ShardedResolver(config, workers=2).resolve(small_table)
        serial = PowerResolver(config).resolve(small_table)
        assert sharded.selection.state.asked_order == serial.selection.state.asked_order
        assert sharded.selection.labels == serial.selection.labels
        assert sharded.matches == serial.matches
        assert sharded.clusters == serial.clusters
        assert sharded.cost_cents == serial.cost_cents

    def test_question_budget_equals_the_selector_run(self, small_table, no_process_pool):
        config = PowerConfig(seed=0)
        unbudgeted = PowerResolver(config).resolve(small_table).questions
        budget = unbudgeted // 2
        sharded = ShardedResolver(config, workers=2).resolve(small_table, budget=budget)
        assert 0 < sharded.questions <= budget < unbudgeted
        selection = _selector_run(small_table, config, budget)
        assert sharded.selection.state.asked_order == selection.state.asked_order
        assert sharded.selection.labels == selection.labels
        assert sharded.questions == selection.questions
        assert sharded.iterations == selection.iterations
        assert sharded.cost_cents == selection.cost_cents


def test_executor_runs_tasks_in_process_and_in_order(no_process_pool):
    squares = ShardExecutor().run(lambda value: value * value, [3, 1, 2], weights=[1, 3, 2])
    assert squares == [9, 1, 4]
    # benchmarks/e2e/tracing.py wraps the method found in the class body.
    assert "run" in ShardExecutor.__dict__
