"""Every name a module of the package imports is used in that module, and
every private module-level name is used somewhere in the package.

No linter ships with the package's toolchain, so this is the check of
pyflakes' F401 ("imported but unused"), read from the syntax tree.
``__init__.py`` re-exports by design and is left out, and so is an import
whose line carries ``# noqa: F401``.  A name counts as used when it is read
anywhere in the module, quoted annotations included.

The second check finds dead helpers: a module-level name of ``src/`` that
starts with ``_`` (dunders aside) must be read, as a name, an attribute or
an imported name, by some statement of ``src/`` other than the one that
defines it.  Uses in tests or in the benchmark do not count.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "toric_cohiggs"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by imports of source that it never reads, in order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, None] = {}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" in lines[node.lineno - 1] + lines[alias.lineno - 1]:
                    continue
                imported[(alias.asname or alias.name).partition(".")[0]] = None
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    trees = [tree]
    for ann in annotations:  # "Filtration" in an annotation reads the name
        for node in ast.walk(ann) if ann is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                trees.append(ast.parse(node.value, mode="eval"))
    read = {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in read]


def test_unused_imports_finds_what_is_never_read():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import os.path as osp\n"
        "from typing import (  # noqa: F401\n"
        "    Any,\n"
        ")\n"
        "from fractions import Fraction\n"
        "from pathlib import Path  # noqa: F401\n"
        "from math import gcd\n"
        "def f(x: 'Fraction') -> int:\n"
        "    return sys.maxsize\n"
    )
    assert unused_imports(source) == ["os", "osp", "gcd"]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each private module-level name of the sources
    (module name -> text) that no other top-level statement reads."""
    defined, reads = [], []  # (module, name, statement); (statement, names read)
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                bound = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                bound = []
            defined += [(module, name, stmt) for name in bound
                        if name.startswith("_") and not name.endswith("__")]
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
            reads.append((stmt, names))
    return [f"{module}.{name}" for module, name, stmt in defined
            if not any(name in names for other, names in reads if other is not stmt)]


def test_unread_private_names_finds_dead_helpers():
    sources = {
        "a": (
            "import b\n"
            "_TABLE = {}\n"
            "_dead, _used_by_b = 1, 2\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1) if n else _TABLE\n"
            "def _helper():\n"
            "    return b._other()\n"
            "class _Box:\n"
            "    _slot = 0\n"
            "def __getattr__(name):\n"
            "    return _helper\n"
        ),
        "b": (
            "from a import _used_by_b\n"
            "def _other():\n"
            "    return _Box\n"
        ),
    }
    assert unread_private_names(sources) == ["a._dead", "a._recursive"]


def test_every_private_name_is_read_in_the_package():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []
