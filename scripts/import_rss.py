#!/usr/bin/env python3
"""Resident memory left by repeated fresh imports of the package.

The benchmark's set-up imports ``toric_cohiggs.cli`` afresh 21 times
(``SETUP_REPEATS`` in ``bench/run.py``) with no bytecode cache, so every
line of the package, run or not, costs ``peak_rss_mb``.  This script
measures that cost alone.  One child interpreter runs under
``PYTHONDONTWRITEBYTECODE=1``, purges the package from ``sys.modules`` and
imports ``toric_cohiggs.cli`` 21 times.  It prints the child's VmRSS before
the first import and after the last, and two peaks, in MB: ``vmhwm_mb``
(VmHWM, read in the same pass as the last VmRSS) and ``ru_maxrss_mb`` (what
``bench/run.py`` reports as ``peak_rss_mb``).  Only VmHWM is sure to cover
the final VmRSS: the kernel keeps ``ru_maxrss`` apart, and on Linux 6.18 it
reads about 0.2 MB below both.  Last comes ``import_ms``, the median wall
time of one of the 21 imports in milliseconds (the first import also loads
the standard library modules that the package uses).  A second child does
the same with a ``gc.collect()`` before each import, outside the timed
span, and prints the five numbers again, prefixed ``collected_``: much of
the first child's peak is garbage of earlier imports that the cyclic
collector has not freed yet, so the pair separates the program's size from
collector timing.  VmRSS and VmHWM are read from ``/proc/self/status``, so
this runs on Linux only.

Usage: python3 scripts/import_rss.py
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import toric_cohiggs

REPEATS = 21  # bench/run.py's SETUP_REPEATS

CHILD = f"""if True:
    import gc, importlib, resource, sys, time

    def status_mb():
        with open("/proc/self/status") as f:
            fields = dict(line.split(":", 1) for line in f)
        return [int(fields[k].split()[0]) / 1024 for k in ("VmRSS", "VmHWM")]

    before = status_mb()[0]
    times = []
    for _ in range({REPEATS}):
        for name in [m for m in sys.modules if m.split(".")[0] == "toric_cohiggs"]:
            del sys.modules[name]
        if sys.argv[1] == "collect":
            gc.collect()
        start = time.perf_counter()
        importlib.import_module("toric_cohiggs.cli")
        times.append(time.perf_counter() - start)
    after, hwm = status_mb()  # one read, so the peak covers the final VmRSS
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(before, after, hwm, peak, sorted(times)[len(times) // 2] * 1000)
"""


def main() -> int:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    src = str(Path(toric_cohiggs.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    print(f"imports {REPEATS}")
    for mode, prefix in (("plain", ""), ("collect", "collected_")):
        out = subprocess.run([sys.executable, "-c", CHILD, mode], env=env, capture_output=True,
                             text=True, check=True).stdout
        before, after, hwm, peak, ms = map(float, out.split())
        print(f"{prefix}vmrss_before_mb {before:.2f}")
        print(f"{prefix}vmrss_after_mb {after:.2f}")
        print(f"{prefix}vmhwm_mb {hwm:.2f}")
        print(f"{prefix}ru_maxrss_mb {peak:.2f}")
        print(f"{prefix}import_ms {ms:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
