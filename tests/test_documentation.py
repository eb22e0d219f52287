"""Consistency checks between code, benches, and documentation."""

import importlib
import json
import pkgutil
import re
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).parent.parent
BENCH_DIR = ROOT / "benchmarks"


def iter_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


class TestDocstrings:
    def test_every_module_documented(self):
        for module in iter_modules():
            assert module.__doc__, f"{module.__name__} lacks a module docstring"

    def test_every_public_class_documented(self):
        for module in iter_modules():
            for name in getattr(module, "__all__", []) or []:
                item = getattr(module, name)
                if isinstance(item, type):
                    assert item.__doc__, f"{module.__name__}.{name} lacks a docstring"


class TestBenchCoverage:
    def bench_result_names(self):
        names = set()
        for path in BENCH_DIR.glob("bench_*.py"):
            names.update(re.findall(r'results\("([^"]+)"\)', path.read_text()))
        return names

    def test_experiments_md_references_real_benches(self):
        """Every results file EXPERIMENTS.md quotes is produced by a bench."""
        text = (ROOT / "EXPERIMENTS.md").read_text()
        quoted = set(re.findall(r"`([\w/]+\.txt)`", text))
        produced = self.bench_result_names()
        for name in quoted:
            stem = name.split("/")[-1]
            assert stem in produced, f"EXPERIMENTS.md references unknown {name}"

    def test_every_paper_figure_has_a_bench(self):
        bench_files = {p.name for p in BENCH_DIR.glob("bench_*.py")}
        for required in (
            "bench_table2_similarity.py",
            "bench_table3_datasets.py",
            "bench_fig09_11_accuracy_real.py",
            "bench_fig12_14_accuracy_simulation.py",
            "bench_fig15_17_similarity_functions.py",
            "bench_fig20_construction.py",
            "bench_fig21_22_grouping.py",
            "bench_fig23_24_group_vs_nongroup.py",
            "bench_fig25_26_serial_selection.py",
            "bench_fig27_30_parallel_selection.py",
            "bench_fig31_33_error_tolerant.py",
            "bench_fig34_num_attributes.py",
        ):
            assert required in bench_files

    def test_design_md_names_every_figure_bench(self):
        text = (ROOT / "DESIGN.md").read_text()
        for path in BENCH_DIR.glob("bench_fig*.py"):
            assert path.name in text, f"{path.name} missing from DESIGN.md"


class TestCommittedBenchReports:
    """The committed ``BENCH_*.json`` files are full runs: every smoke writes
    its fast-mode report under ``/tmp`` instead."""

    @pytest.mark.parametrize(
        "path",
        sorted((BENCH_DIR / "results").glob("BENCH_*.json")),
        ids=lambda path: path.name,
    )
    def test_report_is_a_full_run(self, path):
        report = json.loads(path.read_text())
        assert report["fast_mode"] is False, f"{path.name} holds a fast-mode smoke run"


class TestCLIRegistryConsistency:
    def test_cli_experiments_resolve_to_callables(self):
        from repro.cli import EXPERIMENTS

        for name, harness in EXPERIMENTS.items():
            assert callable(harness), name

    def test_version_exported(self):
        assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)
