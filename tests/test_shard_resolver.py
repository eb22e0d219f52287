"""``repro.shard.ShardedResolver``: the serial resolver under its old name.

The end-to-end benchmark still builds ``ShardedResolver(config,
workers=2)``.  These tests pin what that name now is: it starts no worker
process whatever ``workers`` says, and it runs exactly
``PowerResolver.resolve``, transcript for transcript, budget included.
"""

from __future__ import annotations

import concurrent.futures

import pytest

from repro.core import PowerConfig, PowerResolver
from repro.shard import ShardedResolver, executor


def _refuse_pool(*args, **kwargs):
    raise AssertionError("ShardedResolver started a process pool")


@pytest.fixture()
def no_process_pool(monkeypatch):
    monkeypatch.setattr(executor, "ProcessPoolExecutor", _refuse_pool)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _refuse_pool)


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
