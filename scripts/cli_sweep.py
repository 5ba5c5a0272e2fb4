#!/usr/bin/env python3
"""Byte-identity sweep of the CLI reports of two checkouts.

Every ``*.json`` file under the given directories runs through the report
verbs of both checkouts, PARENT and CHANGE.  A file whose JSON object has a
``"tuple"`` key is a field and runs ``validate-field``; any other file is a
bundle and runs ``check``, ``classify``, ``endalg`` and ``chern``.  Each call
runs with ``--format json`` and with ``--format text``.

Each checkout runs all its calls in one child process with
``PYTHONPATH=<checkout>/src``, which calls that checkout's ``cli.main(argv)``
in-process and keeps each call's exit code, stdout (its length and SHA-256)
and stderr.  Both sides read the same files by the same absolute paths, so
the ``inputs`` of their reports agree.

Every call whose exit code, stdout or stderr differs is printed with both
sides' results; the script exits 1 if any call differs and 0 otherwise.

Usage: python3 scripts/cli_sweep.py PARENT CHANGE DIR [DIR ...]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

VERBS = {"bundle": ("check", "classify", "endalg", "chern"), "field": ("validate-field",)}
FORMATS = ("json", "text")

# Reads a JSON list of argv lists on stdin and writes, for each, [exit code,
# stdout bytes, stdout sha256, stderr] as one JSON list on stdout.
CHILD = r"""
import contextlib, hashlib, io, json, sys
from pathlib import Path
from toric_cohiggs import cli
src = Path(sys.argv[1]).resolve()
if Path(cli.__file__).resolve().parents[1] != src:
    sys.exit(f"imported {cli.__file__}, not the package under {src}")
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    data = out.getvalue().encode()
    results.append([code, len(data), hashlib.sha256(data).hexdigest(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def input_kind(path: Path) -> str:
    """"field" for a JSON object with a "tuple" key, else "bundle" (unreadable files too)."""
    try:
        obj = json.loads(path.read_text())
    except (OSError, ValueError, RecursionError):
        return "bundle"
    return "field" if isinstance(obj, dict) and "tuple" in obj else "bundle"


def sweep_calls(dirs) -> list[list[str]]:
    """The argv of every call, in a fixed order: files sorted, then verbs, then formats."""
    files = sorted({p.resolve() for d in dirs for p in Path(d).rglob("*.json")})
    return [[verb, str(path), "--format", fmt]
            for path in files for verb in VERBS[input_kind(path)] for fmt in FORMATS]


def run_side(checkout: Path, calls: list[list[str]]) -> list[list]:
    """Each call's [exit code, stdout bytes, stdout sha256, stderr] in ``checkout``."""
    src = checkout.resolve() / "src"
    proc = subprocess.run([sys.executable, "-c", CHILD, str(src)], input=json.dumps(calls),
                          capture_output=True, text=True, cwd=checkout,
                          env={**os.environ, "PYTHONPATH": str(src)})
    if proc.returncode:
        raise RuntimeError(f"{checkout}: the sweep exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("dirs", type=Path, nargs="+", metavar="DIR",
                        help="directory searched for *.json inputs")
    args = parser.parse_args(argv)
    for d in args.dirs:
        if not d.is_dir():
            parser.error(f"{d} is not a directory")
    calls = sweep_calls(args.dirs)
    results = zip(calls, run_side(args.parent, calls), run_side(args.change, calls))
    diffs = [(call, p, c) for call, p, c in results if p != c]
    for call, *sides in diffs:
        print(" ".join(call))
        for name, (code, size, digest, err) in zip(("parent", "change"), sides):
            print(f"  {name}: exit {code}, stdout {size} bytes sha256 {digest[:16]}, "
                  f"stderr {err!r}")
    print(f"{len(calls)} calls, {len(diffs)} differ", file=sys.stderr)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
