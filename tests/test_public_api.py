"""Public-API integrity: __all__ correctness, registry instantiability,
and an import that loads no process machinery."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import repro


def modules_with_all():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        module = importlib.import_module(info.name)
        if hasattr(module, "__all__"):
            yield module


class TestAllExports:
    def test_every_all_name_exists(self):
        for module in modules_with_all():
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name} missing"

    def test_no_duplicate_exports(self):
        for module in modules_with_all():
            assert len(module.__all__) == len(set(module.__all__)), module.__name__

    def test_top_level_convenience_imports(self):
        # The documented quickstart names must live at the top level.
        for name in ("PowerResolver", "PowerConfig", "restaurant", "cora",
                     "acmpub", "load_csv", "save_csv", "SimulatedCrowd",
                     "pairwise_quality"):
            assert hasattr(repro, name), name


class TestRegistries:
    def test_selector_registry_instantiable(self):
        from repro.selection import SELECTORS

        for name, cls in SELECTORS.items():
            selector = cls()
            assert selector.name == name

    def test_baseline_registry_instantiable(self):
        from repro.baselines import BASELINES

        for name, cls in BASELINES.items():
            resolver = cls()
            assert resolver.name == name

    def test_similarity_registry_callable(self):
        from repro.similarity import SIMILARITY_FUNCTIONS

        for name, function in SIMILARITY_FUNCTIONS.items():
            assert function("abc", "abc") == 1.0, name

    def test_construction_registry(self):
        import numpy as np

        from repro.graph import CONSTRUCTION_ALGORITHMS

        vectors = np.array([[0.9, 0.9], [0.1, 0.1]])
        for name, algorithm in CONSTRUCTION_ALGORITHMS.items():
            assert algorithm(vectors) == {(0, 1)}, name

    def test_grouping_registry(self):
        import numpy as np

        from repro.graph import GROUPING_ALGORITHMS

        vectors = np.array([[0.5], [0.52], [0.9]])
        for name, algorithm in GROUPING_ALGORITHMS.items():
            groups = algorithm(vectors, 0.1)
            assert sorted(map(sorted, groups)) == [[0, 1], [2]], name


def test_importing_the_package_loads_no_process_machinery():
    """No path starts a worker process, so importing every layer the
    end-to-end benchmark imports must not load the modules that would."""
    probe = (
        "import sys\n"
        "import repro, repro.serve, repro.shard, repro.stream\n"
        "print(sorted(name for name in ('multiprocessing', 'concurrent.futures.process')"
        " if name in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert completed.stdout.strip() == "[]"
