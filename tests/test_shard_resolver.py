"""Exact-mode :class:`repro.shard.ShardedResolver`: the serial pipeline.

Exact mode runs ``PowerResolver.resolve`` in the calling process.  These
tests pin the two halves of that contract: it starts no worker process
whatever ``workers`` says, and under a question or money budget it is the
selector's own budgeted loop, transcript for transcript.
"""

from __future__ import annotations

import concurrent.futures

import pytest

from repro.core import PowerConfig, PowerResolver
from repro.shard import ShardedResolver, executor, questions_for_cents


def _refuse_pool(*args, **kwargs):
    raise AssertionError("exact mode started a process pool")


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


def _assert_same_run(sharded, selection):
    assert sharded.selection.state.asked_order == selection.state.asked_order
    assert sharded.selection.labels == selection.labels
    assert sharded.questions == selection.questions
    assert sharded.iterations == selection.iterations
    assert sharded.cost_cents == selection.cost_cents


class TestExactMode:
    def test_two_workers_start_no_process(self, small_table, no_process_pool):
        config = PowerConfig(seed=0, shards=2)
        sharded = ShardedResolver(config, workers=2).resolve(small_table)
        serial = PowerResolver(config).resolve(small_table)
        assert sharded.selection.extras["shard"] == {"mode": "exact"}
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
        _assert_same_run(sharded, _selector_run(small_table, config, budget))

    def test_money_budget_equals_the_selector_run(self, small_table, no_process_pool):
        config = PowerConfig(seed=0)
        unbudgeted = PowerResolver(config).resolve(small_table).questions
        max_cents = 50  # one HIT: 10 questions at 5 assignments x 10 cents
        budget = questions_for_cents(max_cents, assignments=config.assignments)
        assert budget < unbudgeted
        sharded = ShardedResolver(config, workers=2).resolve(
            small_table, max_cents=max_cents
        )
        assert sharded.cost_cents <= max_cents
        _assert_same_run(sharded, _selector_run(small_table, config, budget))

    def test_tighter_cap_wins(self):
        resolver = ShardedResolver(PowerConfig(), workers=0)
        assert resolver.question_budget(None, None) is None
        assert resolver.question_budget(7, None) == 7
        assert resolver.question_budget(None, 50) == 10
        assert resolver.question_budget(3, 50) == 3
        assert resolver.question_budget(30, 50) == 10
