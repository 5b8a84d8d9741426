"""The benchmark's traced pass calls the package by name; those names must resolve."""

import ast
import importlib
from pathlib import Path

CHILD = Path(__file__).resolve().parents[1] / "bench" / "child.py"


def _used_names():
    """``(module, name)`` for each ``from fusionopt... import`` and ``fusionopt.<attr>``."""
    names = set()
    for node in ast.walk(ast.parse(CHILD.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fusionopt":
            names.update((node.module, alias.name) for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "fusionopt"):
            names.add(("fusionopt", node.attr))
    return names


def test_every_name_the_benchmark_uses_resolves():
    names = _used_names()
    assert len(names) >= 20, "the walk no longer finds the benchmark's imports"
    missing = sorted(f"{module}.{name}" for module, name in names
                     if not hasattr(importlib.import_module(module), name))
    assert missing == []
