"""Production reads one dominance relation: the reachability index.

Every graph's relation is ``graph.reachability``, a packed
:class:`~repro.graph.reachability.ReachabilityIndex` built on first read,
and inference, layering, path covers, the order statistics and the DOT
export read it as descendant and ancestor rows.  The other forms of the
same relation (per-vertex masks, children lists cut from dominance tiles,
the from-scratch Hopcroft-Karp cover) are references, and live in
``repro.verify``.  So nothing under ``src/repro`` outside ``verify/`` may:

* call ``adjacency``, ``descendant_mask`` or ``ancestor_mask``;
* name ``_dominance_tiles``, ``blocked_dominance_lists``,
  ``blocked_edges``, ``minimum_path_cover`` or ``hopcroft_karp``;
* compare ``reachability`` with ``None`` (the relation is never absent).
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Calls that read the relation in a form other than the index's rows.
CALLS = frozenset({"adjacency", "descendant_mask", "ancestor_mask"})

#: Names of the reference forms, which only ``repro.verify`` may hold.
REFERENCES = frozenset(
    {
        "_dominance_tiles",
        "blocked_dominance_lists",
        "blocked_edges",
        "minimum_path_cover",
        "hopcroft_karp",
    }
)

#: Paths under ``src/repro`` that may hold the references.
ALLOWED = ("verify/",)


def _name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def offenses(source: str) -> list[tuple[int, str]]:
    """``(line, what)`` for every read of the relation outside the index."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _name(node.func) in CALLS:
            found.append((node.lineno, f"calls {_name(node.func)}"))
        elif isinstance(node, (ast.Name, ast.Attribute)) and _name(node) in REFERENCES:
            found.append((node.lineno, f"names {_name(node)}"))
        elif isinstance(node, ast.alias) and node.name.split(".")[-1] in REFERENCES:
            found.append((node.lineno, f"imports {node.name}"))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in REFERENCES:
            found.append((node.lineno, f"defines {node.name}"))
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(_name(o) == "reachability" for o in operands) and any(
                _is_none(o) for o in operands
            ):
                found.append((node.lineno, "compares reachability with None"))
    return sorted(found)


def test_production_reads_only_the_reachability_index():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative.startswith(ALLOWED):
            continue
        found += [
            f"{relative}:{line}: {what}"
            for line, what in offenses(path.read_text(encoding="utf-8"))
        ]
    assert not found, "read graph.reachability instead:\n" + "\n".join(found)


def test_every_form_of_offense_is_seen():
    source = "\n".join(
        [
            "from repro.graph.matching import minimum_path_cover as cover",
            "lists = graph.adjacency()",
            "mask = graph.descendant_mask(3)",
            "up = ancestor_mask(matrix, row)",
            "tiles = construction._dominance_tiles(a, b)",
            "if graph.reachability is not None: pass",
            "ok = None == reachability",
            "def hopcroft_karp(adjacency): return adjacency",
            "rows = graph.reachability.descendants(3)",
            "fine = graph.reachability is index",
        ]
    )
    assert offenses(source) == [
        (1, "imports minimum_path_cover"),
        (2, "calls adjacency"),
        (3, "calls descendant_mask"),
        (4, "calls ancestor_mask"),
        (5, "names _dominance_tiles"),
        (6, "compares reachability with None"),
        (7, "compares reachability with None"),
        (8, "defines hopcroft_karp"),
    ]
