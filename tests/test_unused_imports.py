"""Every name a ``weylkit`` module imports is used in that module, and no definition is left behind.

``__init__.py`` is left out of the import check: its imports are the
package's public surface.  Elsewhere ``import name as name`` marks a
deliberate re-export.  A module-level function or class must be
referenced, as a name, an attribute or an imported name, somewhere in the
package outside its own definition, which ``__init__.py`` exporting it
does.  The public ones nothing references are on an allow-list that says
why each is kept; a private one never is.
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


# module.name: why the package keeps a definition that none of its modules references
ALLOWED = {
    "duality.polytabloid_dual_image": (
        "public: one label's image, where find_dual_basis_mismatch reads every label's from the same table"
    ),
    "linalg.rank_of_rows": "bench/spans.py wraps it; the rank tests' oracle",
    "linalg.solve_exact": "bench/spans.py wraps it; the oracle for polytabloid_dual_image",
    "linalg.smith_elementary_divisors": "bench/spans.py wraps it; the Smith-form tests' oracle",
    "places.left_coset_reps": "bench/spans.py wraps it; the oracle for places.shuffles",
}


def unreferenced_definitions(sources: dict[str, str]) -> set[str]:
    """``module.name`` for every top-level function or class that no other statement of ``sources`` references."""
    statements = [(name, stmt) for name, source in sources.items() for stmt in ast.parse(source).body]
    referenced = [
        {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
        | {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
        | {alias.name for node in ast.walk(stmt) if isinstance(node, ast.ImportFrom) for alias in node.names}
        for _, stmt in statements
    ]
    return {
        f"{Path(name).stem}.{stmt.name}"
        for n, (name, stmt) in enumerate(statements)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not stmt.name.startswith("__")
        and not any(stmt.name in refs for k, refs in enumerate(referenced) if k != n)
    }


def package_sources() -> dict[str, str]:
    return {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def test_no_unreferenced_private_helpers():
    unreferenced = unreferenced_definitions(package_sources())
    assert [name for name in sorted(unreferenced) if name.split(".")[1].startswith("_")] == []


def test_every_unreferenced_definition_has_a_stated_reason():
    assert unreferenced_definitions(package_sources()) == set(ALLOWED)


def test_detects_an_unreferenced_private_helper():
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _recursive():\n    return _recursive()\n",
        "b.py": "import a\n\nclass _Lone:\n    pass\n\na._used()\n",
    }
    assert unreferenced_definitions(sources) == {"a._recursive", "b._Lone"}


def test_detects_an_unreferenced_public_definition():
    sources = {
        "__init__.py": "from .a import exported\n",
        "a.py": "def exported(): pass\n\ndef called(): pass\n\nclass Lone: pass\n\ndef lone(): pass\n",
        "b.py": "from .a import called\n\ncalled()\n",
    }
    assert unreferenced_definitions(sources) == {"a.Lone", "a.lone"}
