"""Tests for the four question-selection algorithms (§5)."""

import numpy as np
import pytest

from repro.crowd import PerfectCrowd
from repro.exceptions import ConfigurationError
from repro.graph import GroupedGraph, PairGraph, split_grouping
from repro.selection import (
    MultiPathSelector,
    RandomSelector,
    SELECTORS,
    SinglePathSelector,
    TopoSortSelector,
)

ALL_SELECTORS = [RandomSelector, SinglePathSelector, MultiPathSelector, TopoSortSelector]


@pytest.fixture(scope="module")
def graphs(small_bundle):
    table, pairs, vectors, truth = small_bundle
    base = PairGraph(pairs, vectors)
    grouped = GroupedGraph(base, split_grouping(vectors, 0.1))
    return base, grouped, truth


def label_accuracy(result, truth):
    return np.mean([truth[pair] == label for pair, label in result.labels.items()])


class TestOracleCorrectness:
    @pytest.mark.parametrize("selector_class", ALL_SELECTORS)
    def test_perfect_crowd_near_perfect_labels_on_base(self, graphs, selector_class):
        """With an oracle, mislabels can only come from pairs that violate
        the partial order; the small table has one such pair, so accuracy
        stay near-perfect (the violation plus whatever it implies)."""
        base, _, truth = graphs
        result = selector_class(seed=1).run(base, PerfectCrowd(truth).session())
        assert label_accuracy(result, truth) >= 1 - 5 / len(truth)

    @pytest.mark.parametrize("selector_class", ALL_SELECTORS)
    def test_oracle_errors_confined_to_order_violations(self, graphs, selector_class):
        """Any pair mislabeled under the oracle must be dominated by a
        non-match or dominate a match (a genuine violation of §5.1's
        monotonicity assumption) — never an inference bug."""
        base, _, truth = graphs
        result = selector_class(seed=1).run(base, PerfectCrowd(truth).session())
        truth_array = np.array([truth[pair] for pair in base.pairs])
        for vertex, pair in enumerate(base.pairs):
            if result.labels[pair] == truth[pair]:
                continue
            relation = base.reachability
            ancestors_nonmatch = np.any(~truth_array[relation.ancestors(vertex)]) if truth[pair] else False
            descendants_match = np.any(truth_array[relation.descendants(vertex)]) if not truth[pair] else False
            assert ancestors_nonmatch or descendants_match, pair

    @pytest.mark.parametrize("selector_class", ALL_SELECTORS)
    def test_every_vertex_colored(self, graphs, selector_class):
        base, _, truth = graphs
        result = selector_class(seed=1).run(base, PerfectCrowd(truth).session())
        assert result.state.is_complete()

    def test_grouped_graph_gets_high_accuracy(self, graphs):
        """Grouping may cost a little quality (mixed groups) but not much."""
        _, grouped, truth = graphs
        result = TopoSortSelector().run(grouped, PerfectCrowd(truth).session())
        correct = sum(1 for pair, label in result.labels.items() if truth[pair] == label)
        assert correct / len(truth) >= 0.95


class TestCostProfile:
    @pytest.mark.parametrize("selector_class", ALL_SELECTORS)
    def test_asks_fewer_than_all_vertices(self, graphs, selector_class):
        base, _, truth = graphs
        result = selector_class(seed=1).run(base, PerfectCrowd(truth).session())
        assert result.questions < len(base)

    def test_serial_selectors_one_question_per_iteration(self, graphs):
        base, _, truth = graphs
        for selector in (RandomSelector(seed=2), SinglePathSelector()):
            result = selector.run(base, PerfectCrowd(truth).session())
            assert result.iterations == result.questions

    def test_parallel_selectors_fewer_iterations(self, graphs):
        base, _, truth = graphs
        serial = SinglePathSelector().run(base, PerfectCrowd(truth).session())
        for selector in (MultiPathSelector(), TopoSortSelector()):
            parallel = selector.run(base, PerfectCrowd(truth).session())
            assert parallel.iterations < serial.iterations

    def test_single_path_not_worse_than_random(self, graphs):
        """The paper's Appendix E.2.1 finding, averaged over seeds."""
        base, _, truth = graphs
        single = SinglePathSelector().run(base, PerfectCrowd(truth).session())
        random_costs = [
            RandomSelector(seed=s).run(base, PerfectCrowd(truth).session()).questions
            for s in range(5)
        ]
        assert single.questions <= np.mean(random_costs) * 1.1

    def test_grouping_reduces_questions(self, graphs):
        base, grouped, truth = graphs
        raw = TopoSortSelector().run(base, PerfectCrowd(truth).session())
        grp = TopoSortSelector().run(grouped, PerfectCrowd(truth).session())
        assert grp.questions <= raw.questions


class TestResultBookkeeping:
    def test_result_fields(self, graphs):
        base, _, truth = graphs
        result = TopoSortSelector().run(base, PerfectCrowd(truth).session())
        assert result.name == "power"
        assert result.assignment_time >= 0.0
        assert result.cost_cents > 0
        gold = {p for p, v in truth.items() if v}
        assert len(result.matches ^ gold) <= 2  # only order violations differ

    def test_deterministic_given_seed(self, graphs):
        base, _, truth = graphs
        a = RandomSelector(seed=7).run(base, PerfectCrowd(truth).session())
        b = RandomSelector(seed=7).run(base, PerfectCrowd(truth).session())
        assert a.state.asked_order == b.state.asked_order


class TestTopoKnobs:
    def test_invalid_layer_position(self):
        with pytest.raises(ConfigurationError):
            TopoSortSelector(layer_position=2.0)

    @pytest.mark.parametrize("position", [0.0, 0.5, 1.0])
    def test_all_positions_terminate(self, graphs, position):
        base, _, truth = graphs
        selector = TopoSortSelector(layer_position=position)
        result = selector.run(base, PerfectCrowd(truth).session())
        assert result.state.is_complete()

    def test_registry_contains_all(self):
        assert set(SELECTORS) == {"random", "single-path", "multi-path", "power"}
