"""Runtime dependencies stay numpy only.

Every module of the package may import numpy, the package itself and the
Python standard library, and nothing else.
"""

import ast
import sys
from pathlib import Path

import fusionopt

PACKAGE = Path(fusionopt.__file__).resolve().parent


def _absolute_imports(tree):
    """The top-level name of each absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_package_imports_only_numpy_itself_and_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 1
    allowed = {"numpy", "fusionopt"} | sys.stdlib_module_names
    outside = [
        (path.relative_to(PACKAGE).as_posix(), name)
        for path in modules
        for name in _absolute_imports(ast.parse(path.read_text(encoding="utf-8")))
        if name not in allowed
    ]
    assert outside == []
