"""Every import in ``src/``, ``tests/`` and ``benchmarks/`` is read.

CI's lint step (ruff's F401) fails on an import nothing reads; this scan of
the syntax trees fails on one in the tier-1 suite too, where ruff may not
be installed.  An import counts as read when its name is loaded in the
scope that binds it (the module, or the function that imports it, nested
functions included), appears in a string annotation, is listed in
``__all__``, is re-exported by an ``__init__.py``, or sits on a
``# noqa: F401`` line.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).parent.parent

#: A ``# noqa`` comment that silences F401: bare, or naming the code.
_NOQA = re.compile(r"#\s*noqa(?!:)|#\s*noqa:[^#]*\bF401\b")

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _sources() -> list[Path]:
    return sorted(
        path
        for directory in ("src", "tests", "benchmarks")
        for path in (ROOT / directory).rglob("*.py")
    )


def _own_nodes(scope: ast.AST):
    """The nodes of *scope* outside the functions nested in it."""
    for child in ast.iter_child_nodes(scope):
        yield child
        if not isinstance(child, _SCOPES):
            yield from _own_nodes(child)


def _imports(scope: ast.AST):
    """``(bound name, import node)`` for every import *scope* itself makes."""
    for node in _own_nodes(scope):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node


def _annotation_names(annotation: ast.AST | None):
    """Names an annotation reads, inside string annotations too."""
    for node in ast.walk(annotation) if annotation is not None else ():
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            yield from (n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))


def _reads(scope: ast.AST) -> set[str]:
    """Every name loaded anywhere in *scope*, annotations included."""
    names = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            names.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.update(_annotation_names(node.returns))
        elif isinstance(node, ast.AnnAssign):
            names.update(_annotation_names(node.annotation))
    return names


def _exported(module: ast.Module) -> set[str]:
    """The names a module's ``__all__`` lists."""
    names = set()
    for node in module.body:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                names.update(
                    n.value
                    for n in ast.walk(node.value)
                    if isinstance(n, ast.Constant) and isinstance(n.value, str)
                )
    return names


def unused_imports(path: Path, root: Path = ROOT) -> list[str]:
    """``path:line: name`` (relative to *root*) for every import in *path*
    that nothing reads."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    module = ast.parse(source, filename=str(path))
    exported = _exported(module)
    unused = []
    scopes = [module, *(n for n in ast.walk(module) if isinstance(n, _SCOPES))]
    for scope in scopes:
        imports = list(_imports(scope))
        if not imports:
            continue
        reads = _reads(scope)
        for name, node in imports:
            if name in reads or name == "*":
                continue
            if scope is module and (name in exported or path.name == "__init__.py"):
                continue
            if any(_NOQA.search(line) for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            unused.append(f"{path.relative_to(root)}:{node.lineno}: {name}")
    return unused


def test_every_import_is_read():
    unused = [entry for path in _sources() for entry in unused_imports(path)]
    assert not unused, "imports nothing reads:\n" + "\n".join(unused)


class TestScanner:
    """The scan flags what ruff's F401 flags, and only that."""

    @staticmethod
    def scan(tmp_path, source, name="module.py"):
        path = tmp_path / name
        path.write_text(source)
        return [entry.rsplit(": ", 1)[1] for entry in unused_imports(path, tmp_path)]

    def test_flags_unread_module_and_function_imports(self, tmp_path):
        source = (
            "import os\nimport numpy as np\nfrom json import dumps, loads\n"
            "def f():\n    from math import sqrt\n    return loads('1')\n"
            "def g():\n    import math\n    return math.pi\n"
        )
        assert self.scan(tmp_path, source) == ["os", "np", "dumps", "sqrt"]

    def test_counts_every_kind_of_read(self, tmp_path):
        source = (
            "from __future__ import annotations\n"
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n    from decimal import Decimal\n"
            "from fractions import Fraction\n"
            "import os.path\n"
            "from json import dumps  # noqa: F401\n"
            "from json import (  # noqa: F401\n    loads,\n)\n"
            "import math\n"
            "__all__ = ['math']\n"
            "def f(x: 'Decimal | None') -> 'list[Fraction]':\n"
            "    def inner():\n        return os.path.sep\n"
            "    return inner\n"
        )
        assert self.scan(tmp_path, source) == []
        assert self.scan(tmp_path, "import os\n", name="__init__.py") == []
