"""Consistency checks between code, benches, and documentation."""

import importlib
import json
import pkgutil
import re
import statistics
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


COMMITTED_REPORTS = pytest.mark.parametrize(
    "path",
    sorted((BENCH_DIR / "results").glob("BENCH_*.json")),
    ids=lambda path: path.name,
)


class TestCommittedBenchReports:
    """The committed ``BENCH_*.json`` files are full runs of the current
    benches in the one report schema: every smoke writes its fast-mode
    report under ``/tmp`` instead."""

    @COMMITTED_REPORTS
    def test_report_is_a_full_run(self, path):
        report = json.loads(path.read_text())
        assert report["fast_mode"] is False, f"{path.name} holds a fast-mode smoke run"

    @COMMITTED_REPORTS
    def test_report_parses_in_the_bench_schema(self, path):
        from repro.experiments.bench import BENCHES

        report = json.loads(path.read_text())
        assert list(report) == [
            "benchmark", "fast_mode", "python", "numpy", "workload",
            "sides", "ratios", "checks", "details",
        ]
        assert path.name == f"BENCH_{report['benchmark']}.json"
        full = BENCHES[report["benchmark"]].full
        assert report["workload"] == full.workload
        for side in report["sides"].values():
            assert list(side) == ["seconds", "quartiles", "runs", "units"]
            low, high = side["quartiles"]
            assert low <= side["seconds"] == statistics.median(side["runs"]) <= high
        for name, ratio in report["ratios"].items():
            assert list(ratio) == ["numerator", "denominator", "value", "floor", "ceiling"]
            top, bottom = (report["sides"][ratio[key]] for key in ("numerator", "denominator"))
            per_unit = (top["seconds"] / top["units"]) / (bottom["seconds"] / bottom["units"])
            assert ratio["value"] == pytest.approx(per_unit)
            bar = ratio["floor"] if ratio["ceiling"] is None else ratio["ceiling"]
            assert bar == full.bars.get(name)
        assert all(isinstance(passed, bool) for passed in report["checks"].values())
        assert isinstance(report["details"], dict)


class TestCLIRegistryConsistency:
    def test_cli_experiments_resolve_to_callables(self):
        from repro.cli import EXPERIMENTS

        for name, harness in EXPERIMENTS.items():
            assert callable(harness), name

    def test_version_exported(self):
        assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)


class TestModuleMaps:
    SOURCE = ROOT / "src" / "repro"

    def design_map(self) -> str:
        section = (ROOT / "DESIGN.md").read_text().split("## 5. Module map", 1)[1]
        return section.split("```", 2)[1]

    def packages(self) -> list[str]:
        return sorted(path.parent.name for path in self.SOURCE.glob("*/__init__.py"))

    def test_design_map_names_every_package_and_module(self):
        entries = set(re.findall(r"^  (\S+)", self.design_map(), re.MULTILINE))
        expected = {f"{name}/" for name in self.packages()}
        expected |= {path.name for path in self.SOURCE.glob("*.py")}
        assert expected <= entries, f"DESIGN.md §5 omits {sorted(expected - entries)}"

    def test_design_map_lists_only_existing_examples(self):
        listed = self.design_map().split("\nexamples/", 1)[1]
        names = re.findall(r"(\w+\.py)", re.split(r"\n\S", listed, maxsplit=1)[0])
        assert names
        missing = [name for name in names if not (ROOT / "examples" / name).exists()]
        assert not missing, f"DESIGN.md §5 lists missing examples {missing}"

    def test_readme_table_names_every_package(self):
        readme = (ROOT / "README.md").read_text()
        rows = set(re.findall(r"^\| `repro\.(\w+)`", readme, re.MULTILINE))
        missing = sorted(set(self.packages()) - rows)
        assert not missing, f"README's package table omits {missing}"
