"""Every name a ``weylkit`` module imports is used in that module, and no private helper is left behind.

``__init__.py`` is left out of the import check: its imports are the
package's public surface.  Elsewhere ``import name as name`` marks a
deliberate re-export.  A private module-level function or class must be
referenced, as a name or an attribute, somewhere in the package outside
its own definition.
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


def unreferenced_private_helpers(sources: dict[str, str]) -> list[str]:
    statements = [(name, stmt) for name, source in sources.items() for stmt in ast.parse(source).body]
    referenced = [
        {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
        | {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
        for _, stmt in statements
    ]
    return [
        f"{name}: {stmt.name}"
        for n, (name, stmt) in enumerate(statements)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name.startswith("_")
        and not stmt.name.startswith("__")
        and not any(stmt.name in refs for k, refs in enumerate(referenced) if k != n)
    ]


def test_no_unreferenced_private_helpers():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_helpers(sources) == []


def test_detects_an_unreferenced_private_helper():
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _recursive():\n    return _recursive()\n",
        "b.py": "import a\n\nclass _Lone:\n    pass\n\na._used()\n",
    }
    assert unreferenced_private_helpers(sources) == ["a.py: _recursive", "b.py: _Lone"]
