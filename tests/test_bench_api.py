"""The benchmark's traced pass calls the package by name; those names must resolve."""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import fusionopt

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


def test_the_top_level_holds_only_what_the_benchmark_reads():
    public = {name for name, value in vars(fusionopt).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    read = {name for module, name in _used_names() if module == "fusionopt"}
    assert len(read) >= 5, "the walk no longer finds the benchmark's top-level reads"
    assert public == read
    assert isinstance(fusionopt.__version__, str)


def test_importing_the_package_leaves_objective_and_textprep_unloaded():
    code = ("import sys, fusionopt; "
            "print(sorted({'fusionopt.objective', 'fusionopt.textprep'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(fusionopt.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert proc.stdout == "[]\n"
