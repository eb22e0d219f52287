"""Time is read in one place: the observability clock.

Production code under ``src/repro`` times work through
:func:`repro.obs.timed` regions or reads ``obs.tracer.clock``, so every
number it reports is the sum of spans read from the same clock.  Only
``obs/clock.py`` (the clock itself), ``experiments/`` (the bench and
figure harnesses, which time the program from outside) and ``verify/``
may call ``time.perf_counter``, ``time.process_time``, ``time.time`` or
``time.monotonic``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The ``time`` functions that read a clock (``time.sleep`` is not one).
CLOCKS = frozenset({"perf_counter", "process_time", "time", "monotonic"})

#: Paths under ``src/repro`` that may read a clock directly.
ALLOWED = ("obs/clock.py", "experiments/", "verify/")


def clock_calls(source: str) -> list[tuple[int, str]]:
    """``(line, clock)`` for every clock call in *source*, in either import
    form and under any alias: ``time.perf_counter()`` after ``import
    time [as t]``, and ``perf_counter()`` after ``from time import
    perf_counter [as p]``."""
    tree = ast.parse(source)
    modules: set[str] = set()
    functions: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "time":
                    modules.add(alias.asname or "time")
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name in CLOCKS:
                    functions[alias.asname or alias.name] = alias.name
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        function = node.func
        if (
            isinstance(function, ast.Attribute)
            and function.attr in CLOCKS
            and isinstance(function.value, ast.Name)
            and function.value.id in modules
        ):
            calls.append((node.lineno, function.attr))
        elif isinstance(function, ast.Name) and function.id in functions:
            calls.append((node.lineno, functions[function.id]))
    return sorted(calls)


def test_no_clock_is_read_outside_the_clock_module():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative.startswith(ALLOWED):
            continue
        offenders += [
            f"{relative}:{line}: time.{clock}()"
            for line, clock in clock_calls(path.read_text(encoding="utf-8"))
        ]
    assert not offenders, "read the tracer's clock instead:\n" + "\n".join(offenders)


def test_both_import_forms_and_aliases_are_seen():
    source = "\n".join(
        [
            "import time",
            "import time as _time",
            "from time import monotonic, perf_counter as pc, sleep",
            "time.time()",
            "_time.process_time()",
            "monotonic()",
            "pc()",
            "time.sleep(0)",
            "sleep(0)",
            "clock.wall()",
        ]
    )
    assert clock_calls(source) == [
        (4, "time"), (5, "process_time"), (6, "monotonic"), (7, "perf_counter")
    ]
