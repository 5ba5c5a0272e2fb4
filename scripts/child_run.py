"""Run one ``python -m toric_cohiggs`` call in a child process and measure it.

Shared by the scaling scripts.  The child imports the same package as the
calling script, its report goes to a file, and the time includes interpreter
start-up; the peak RSS is the child's alone.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import toric_cohiggs


def run_cli(args: list[str], report: Path) -> tuple[float, int, float]:
    """(seconds, report bytes, peak RSS in MB) of one CLI call writing to ``report``."""
    env = dict(os.environ)
    src = str(Path(toric_cohiggs.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "toric_cohiggs", *args]
    with report.open("wb") as out:
        start = time.perf_counter()
        child = subprocess.Popen(argv, stdout=out, env=env)
        _, status, usage = os.wait4(child.pid, 0)
        seconds = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not by Popen
    if child.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {child.returncode}")
    return seconds, report.stat().st_size, usage.ru_maxrss / 1024  # ru_maxrss is in KB
