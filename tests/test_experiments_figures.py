"""Smoke tests for the figure harnesses, on a stubbed tiny workload.

The real sweeps run in `benchmarks/`; here every harness is exercised
against a miniature workload so regressions in the plumbing (argument
wiring, row shapes, file output) surface in seconds.
"""

import pytest

import repro.experiments.ablations as ablations
import repro.experiments.figures as figures
from repro.experiments.runner import Workload


@pytest.fixture()
def tiny_workload(small_bundle):
    table, pairs, vectors, truth = small_bundle
    from repro.data.ground_truth import true_match_pairs

    return Workload(
        name="restaurant",  # harnesses key datasets by name
        table=table,
        pairs=pairs,
        vectors=vectors,
        scores=vectors.mean(axis=1),
        truth=truth,
        gold=true_match_pairs(table),
        pruning_threshold=0.2,
    )


@pytest.fixture()
def stub_prepare(tiny_workload, monkeypatch):
    def fake_prepare(name, similarity="bigram", max_pairs=None):
        return tiny_workload

    monkeypatch.setattr(figures, "prepare", fake_prepare)
    monkeypatch.setattr(ablations, "prepare", fake_prepare)
    return fake_prepare


class TestTableHarnesses:
    def test_table2(self, capsys):
        rows = figures.table2_similarity()
        assert len(rows) == 18
        assert "Table 2" in capsys.readouterr().out

    def test_table3_stubbed(self, stub_prepare, capsys):
        rows = figures.table3_datasets(datasets=("restaurant",))
        assert rows[0][1] == 60  # the tiny table's record count
        assert "Table 3" in capsys.readouterr().out


class TestFigureHarnesses:
    def test_accuracy_sweep(self, stub_prepare):
        rows = figures.accuracy_sweep(
            mode="simulation", datasets=("restaurant",), bands=("90",), num_seeds=1
        )
        assert {r.method for r in rows} == {"power", "power+", "trans", "acd", "gcer"}
        assert all(0 <= r.f_measure <= 1 for r in rows)

    def test_similarity_function_sweep(self, stub_prepare):
        rows = figures.similarity_function_sweep(
            functions=("bigram",), datasets=("restaurant",), num_seeds=1
        )
        assert len(rows) == 5

    def test_construction_benchmark(self, stub_prepare):
        rows = figures.construction_benchmark(dataset="restaurant", sizes=(40,))
        assert len(rows) == 1
        _, size, edges, brute, quicksort, index = rows[0]
        assert size == 40
        assert min(brute, quicksort, index) > 0

    def test_grouping_benchmark(self, stub_prepare):
        rows = figures.grouping_benchmark(datasets=("restaurant",), epsilons=(0.1,))
        assert rows[0][2] > 0  # split produced groups

    def test_group_vs_nongroup(self, stub_prepare):
        rows = figures.group_vs_nongroup(epsilons=(0.1,), max_pairs=100)
        labels = [row[1] for row in rows]
        assert labels[0] == "non-group"
        assert "split" in labels

    def test_serial_selection(self, stub_prepare):
        rows = figures.serial_selection(sizes=(50,))
        assert {row[2] for row in rows} == {"random", "single-path"}

    def test_parallel_selection(self, stub_prepare):
        rows = figures.parallel_selection(datasets=("restaurant",))
        assert {row[1] for row in rows} == {"single-path", "multi-path", "power"}

    def test_error_tolerant_sweep(self, stub_prepare):
        rows = figures.error_tolerant_sweep(
            datasets=("restaurant",), epsilons=(0.1,), num_seeds=1
        )
        assert {row[2] for row in rows} == {"power", "power+"}

    def test_attribute_sweep_needs_real_cora(self):
        # Uses Table.project on real Cora; just verify a short sweep runs.
        rows = figures.attribute_sweep(counts=(2,))
        assert rows[0][0] == 2


class TestAblationHarnesses:
    def test_confidence_sweep(self, stub_prepare):
        rows = ablations.confidence_sweep(thresholds=(0.8,), num_seeds=1)
        assert rows[0][1] == 0.8

    def test_histogram_sweep(self, stub_prepare):
        rows = ablations.histogram_sweep(
            bins=(5,), binnings=("equi-depth",), num_seeds=1
        )
        assert len(rows) == 1

    def test_path_cover_compare(self, stub_prepare):
        rows = ablations.path_cover_compare()
        assert {row[1] for row in rows} == {"matching", "greedy"}

    def test_topo_layer_sweep(self, stub_prepare):
        rows = ablations.topo_layer_sweep(positions=(0.5,))
        assert rows[0][1] == 0.5

    def test_aggregation_compare(self, stub_prepare):
        rows = ablations.aggregation_compare(num_seeds=1)
        assert {row[1] for row in rows} == {"majority", "weighted", "quality-aware"}

    def test_budget_curve(self, stub_prepare):
        rows = ablations.budget_curve(budgets=(0, None))
        assert rows[0][2] == 0  # zero budget asks nothing

    def test_index_dimensionality(self, stub_prepare):
        rows = ablations.index_dimensionality(size=50)
        assert rows[0][4] == rows[1][4]  # same edge count
