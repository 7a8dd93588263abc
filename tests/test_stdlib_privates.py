"""No ``weylkit`` module reads an underscore-prefixed attribute of a standard-library module.

Names like ``argparse._SubParsersAction`` are a library's internals, free to
change in any Python release.  The check flags an attribute chain rooted
at an imported standard-library module with a private link anywhere in it
(``argparse._SubParsersAction``, ``os.path._joinrealpath``), and
``from module import _name``.  Dunder names such as ``__version__`` are
public.
"""

import ast
import sys

from test_unused_imports import package_sources


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _root(node: ast.expr):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def private_stdlib_reads(source: str) -> list[str]:
    tree = ast.parse(source)
    stdlib = set()  # the local names bound to standard-library modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in sys.stdlib_module_names:
                    stdlib.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] in sys.stdlib_module_names:
                found += [f"line {node.lineno}: {node.module}.{a.name}" for a in node.names if _is_private(a.name)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_private(node.attr) and _root(node) in stdlib:
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return sorted(found)


def test_no_module_reads_a_private_stdlib_attribute():
    found = {name: reads for name, source in package_sources().items() if (reads := private_stdlib_reads(source))}
    assert found == {}


def test_detects_private_stdlib_reads():
    source = (
        "import argparse\n"
        "import os.path as osp\n"
        "from functools import _make_key, cache\n"
        "from .cli import _parser\n"
        "class Lazy(argparse._SubParsersAction):\n"
        "    pass\n"
        "osp._joinrealpath, argparse.ArgumentParser._get_formatter, argparse.__name__, cache._private\n"
    )
    assert private_stdlib_reads(source) == [
        "line 3: functools._make_key",
        "line 5: argparse._SubParsersAction",
        "line 7: argparse.ArgumentParser._get_formatter",
        "line 7: osp._joinrealpath",
    ]
