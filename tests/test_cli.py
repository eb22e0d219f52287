"""Tests for the command-line interface."""

import functools
import inspect

import pytest

from repro.cli import EXPERIMENTS, experiments_help, main
from repro.data import Table, load_csv, save_csv


@pytest.fixture()
def small_csv(tmp_path, small_table):
    path = tmp_path / "small.csv"
    save_csv(small_table, path)
    return path


class TestGenerate:
    def test_generate_restaurant(self, tmp_path, capsys):
        output = tmp_path / "r.csv"
        assert main(["generate", "restaurant", str(output), "--seed", "2"]) == 0
        table = load_csv(output)
        assert len(table) == 858
        assert "wrote 858 records" in capsys.readouterr().out

    def test_generate_acmpub_scaled(self, tmp_path):
        output = tmp_path / "a.csv"
        assert main(["generate", "acmpub", str(output), "--scale", "0.01"]) == 0
        assert len(load_csv(output)) == round(66_879 * 0.01)

    def test_scale_rejected_for_restaurant(self, tmp_path, capsys):
        output = tmp_path / "r.csv"
        code = main(["generate", "restaurant", str(output), "--scale", "0.5"])
        assert code == 2
        assert "--scale" in capsys.readouterr().err


class TestStats:
    def test_stats_reports_shape(self, small_csv, capsys):
        assert main(["stats", str(small_csv)]) == 0
        out = capsys.readouterr().out
        assert "records   : 60" in out
        assert "candidate pairs (threshold 0.2): 290" in out
        assert (
            "partial order: |V|=290 |E|=18631 comparable=44.5% depth=33 width=53"
            in out.splitlines()
        )


class TestResolve:
    def test_resolve_end_to_end(self, small_csv, tmp_path, capsys):
        output = tmp_path / "clusters.csv"
        code = main(
            ["resolve", str(small_csv), "--band", "90", "--seed", "1",
             "--output", str(output)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "questions" in out and "quality" in out
        rows = output.read_text().strip().splitlines()
        assert len(rows) == 61  # header + 60 records
        assert rows[0].endswith("cluster_id")

    def test_resolve_with_budget(self, small_csv, capsys):
        code = main(
            ["resolve", str(small_csv), "--budget", "10", "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        questions = int(out.split("questions :")[1].splitlines()[0])
        assert questions <= 10

    def test_resolve_needs_ground_truth(self, tmp_path, capsys):
        table = Table.from_rows("t", ("a",), [("x",), ("y",)])
        path = tmp_path / "no_truth.csv"
        save_csv(table, path)
        assert main(["resolve", str(path)]) == 2
        assert "entity_id" in capsys.readouterr().err

    def test_resolve_no_error_tolerant(self, small_csv):
        assert main(
            ["resolve", str(small_csv), "--no-error-tolerant", "--seed", "2"]
        ) == 0


class TestExperiment:
    def test_table2_runs(self, tmp_path, capsys):
        save_to = tmp_path / "t2.txt"
        assert main(["experiment", "table2", "--save-to", str(save_to)]) == 0
        assert "Table 2" in capsys.readouterr().out
        assert save_to.exists()

    def test_registry_covers_all_figures(self):
        names = set(EXPERIMENTS)
        for required in ("table2", "table3", "fig09-11", "fig12-14", "fig15-17",
                         "fig20", "fig21-22", "fig23-24", "fig25-26",
                         "fig27-30", "fig31-33", "fig34", "extension-faults"):
            assert required in names

    def test_every_registered_experiment_is_callable_with_defaults(self):
        """The drift guard: a registry entry must be a callable whose every
        remaining parameter has a default (the experiment runner calls it
        as ``harness(save_to=...)``), partial-aware."""
        for name, harness in EXPERIMENTS.items():
            target = (
                harness.func if isinstance(harness, functools.partial) else harness
            )
            assert callable(target), name
            # signature() of a partial already discounts the bound arguments.
            signature = inspect.signature(harness)
            for param in signature.parameters.values():
                if param.kind in (
                    inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD
                ):
                    continue
                assert param.default is not inspect.Parameter.empty, (
                    f"{name}: parameter {param.name!r} has no default"
                )
            assert "save_to" in signature.parameters, name

    def test_help_text_generated_from_registry(self):
        """Help lines come from the harness docstrings, so the help can
        never drift from the registry contents."""
        text = experiments_help()
        for name, harness in EXPERIMENTS.items():
            assert name in text
            target = (
                harness.func if isinstance(harness, functools.partial) else harness
            )
            summary = (target.__doc__ or "").strip().splitlines()[0]
            assert summary  # every harness documents itself
            assert summary in text


class TestSimulate:
    def test_simulate_end_to_end_with_faults(self, tmp_path, capsys):
        code = main([
            "simulate", "--dataset", "restaurant", "--fault-profile", "flaky",
            "--method", "power", "--seed", "3", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fault profile  : flaky" in out
        assert "re-posts" in out
        journal = tmp_path / "SIM_restaurant_flaky.journal.jsonl"
        assert journal.exists()
        telemetry_file = journal.with_suffix(".telemetry.json")
        assert telemetry_file.exists()
        import json

        telemetry = json.loads(telemetry_file.read_text())
        assert telemetry["counters"]["answered_pairs"] > 0
        assert telemetry["wall_clock_seconds"] > 0

    def test_simulate_fault_free_matches_closed_form(self, tmp_path, capsys):
        code = main([
            "simulate", "--dataset", "restaurant", "--fault-profile", "none",
            "--method", "power", "--seed", "1", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        # Fault-free: the simulated clock and the closed form agree, so the
        # same number is printed twice on the wall-clock line.
        line = next(l for l in out.splitlines() if l.startswith("wall clock"))
        minutes = [tok for tok in line.split() if tok.replace(".", "").isdigit()]
        assert len(minutes) == 2 and minutes[0] == minutes[1]

    def test_simulate_scaled_profile_and_budget(self, tmp_path, capsys):
        code = main([
            "simulate", "--dataset", "restaurant", "--fault-profile", "scaled:0.1",
            "--method", "power", "--seed", "2", "--budget-cents", "300",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        billed = float(out.split("billed         :")[1].split("USD")[0])
        assert billed <= 3.0
        assert (tmp_path / "SIM_restaurant_scaled-0.1.journal.jsonl").exists()

    def test_simulate_unknown_profile_rejected(self, tmp_path, capsys):
        code = main([
            "simulate", "--dataset", "restaurant",
            "--fault-profile", "bogus", "--out-dir", str(tmp_path),
        ])
        assert code == 1
        assert "unknown fault profile" in capsys.readouterr().err
