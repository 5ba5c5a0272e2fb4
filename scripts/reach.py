#!/usr/bin/env python3
"""The functions and methods of the package that no CLI call enters.

Every ``*.json`` file under the given directories runs through the report
verbs of ``cli_sweep.py`` (``sweep_calls``: ``check``, ``classify``,
``endalg`` and ``chern`` on a bundle, ``validate-field`` on a field, each in
both formats), in-process through ``cli.main``, under ``sys.setprofile``.
The functions and methods of the package are read from their syntax trees:
each module-level ``def`` and each ``def`` in a class body, nested classes
included.  A code object is matched to its ``def`` by file and first line
(the first decorator's line for a decorated one).

Each function or method that no call entered is printed as
``module.qualname``, one per line, sorted.  A name on the list is reached
by no verb on these inputs; it may still serve the tests or the benchmark,
or run only while the package is imported (``Record.__init_subclass__``).

Usage: python3 scripts/reach.py DIR [DIR ...]
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import sys
from pathlib import Path

from toric_cohiggs import cli

sys.path.insert(0, str(Path(__file__).resolve().parent))
from cli_sweep import sweep_calls

PACKAGE = Path(cli.__file__).resolve().parent


def definitions(source: str) -> dict[int, str]:
    """First line -> qualname of each function and method of a module's source."""
    out: dict[int, str] = {}

    def visit(body, prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out[min([node.lineno, *(d.lineno for d in node.decorator_list)])] = prefix + node.name
            elif isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")

    visit(ast.parse(source).body, "")
    return out


def entered_code(calls) -> set[tuple[str, int]]:
    """(file, first line) of every code object that the calls entered."""
    seen: set = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    for argv in calls:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            sys.setprofile(hook)
            try:
                cli.main(argv)
            except SystemExit:
                pass
            finally:
                sys.setprofile(None)
    return {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in seen}


def unreached(calls) -> list[str]:
    """``module.qualname`` of each function or method of the package that no call entered."""
    entered = entered_code(calls)
    return sorted(
        f"{path.stem}.{name}"
        for path in PACKAGE.glob("*.py")
        for line, name in definitions(path.read_text()).items()
        if (os.path.realpath(path), line) not in entered
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", type=Path, nargs="+", metavar="DIR",
                        help="directory searched for *.json inputs")
    args = parser.parse_args(argv)
    for d in args.dirs:
        if not d.is_dir():
            parser.error(f"{d} is not a directory")
    for name in unreached(sweep_calls(args.dirs)):
        print(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
