"""Every name a ``weylkit`` module imports is used in that module.

``__init__.py`` is left out: its imports are the package's public surface.
Elsewhere ``import name as name`` marks a deliberate re-export.
"""

import ast
from pathlib import Path

import weylkit

PACKAGE = Path(weylkit.__file__).parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.asname != alias.name:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports():
    found = {
        path.name: unused
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py" and (unused := unused_imports(path.read_text()))
    }
    assert found == {}


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom math import gcd, pi as pi, prod\nprod([])\n") == [
        "line 2: gcd",
        "line 1: os",
    ]
