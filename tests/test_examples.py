"""Smoke tests: the runnable examples actually run.

Only the fast examples execute here (the full sweeps live in benchmarks);
each is loaded by path and its ``main()`` invoked, with output checked for
its headline content.
"""

import importlib.util
import sys
from pathlib import Path


EXAMPLES_DIR = Path(__file__).parent.parent / "examples"


def run_example(name: str):
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        sys.modules.pop(spec.name, None)


class TestExamples:
    def test_quickstart(self, capsys):
        run_example("quickstart.py")
        out = capsys.readouterr().out
        assert "crowd questions asked" in out
        assert "quality" in out

    def test_paper_walkthrough(self, capsys):
        run_example("paper_walkthrough.py")
        out = capsys.readouterr().out
        assert "questions : 4" in out  # the paper's Fig. 7 walkthrough
        assert "iterations: 3" in out
        assert "0.32 0.28 0.21 0.19" in out.replace("[", "").replace("]", "")

    def test_custom_dataset(self, capsys):
        run_example("custom_dataset.py")
        out = capsys.readouterr().out
        assert "same product" in out
        assert "F1=1.000" in out

    def test_streaming_dedup(self, capsys):
        run_example("streaming_dedup.py")
        out = capsys.readouterr().out
        assert "final state" in out
        assert "one-shot resolution" in out

    def test_all_examples_have_mains(self):
        for path in EXAMPLES_DIR.glob("*.py"):
            source = path.read_text()
            assert "def main()" in source, path.name
            assert '__name__ == "__main__"' in source, path.name

    def test_readme_lists_every_example(self):
        readme = (EXAMPLES_DIR.parent / "README.md").read_text()
        for path in EXAMPLES_DIR.glob("*.py"):
            assert path.name in readme, f"{path.name} missing from README"
