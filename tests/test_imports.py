"""Every name a module of the package imports is used in that module.

No linter ships with the package's toolchain, so this is the check of
pyflakes' F401 ("imported but unused"), read from the syntax tree.
``__init__.py`` re-exports by design and is left out, and so is an import
whose line carries ``# noqa: F401``.  A name counts as used when it is read
anywhere in the module, quoted annotations included.
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
