#!/usr/bin/env python3
"""Time, report size and peak memory of ``check`` or ``classify`` at growing sizes.

Each verb has its bundle families, indexed by a size s:

* ``check``, on P^s: the tangent bundle ``T`` and ``T+O(D0)`` = T ⊕ O(D_0).
  Both are compatible; each maximal cone's threshold grid has 2^s points, but
  the filtration values are nonzero only at the empty face and at single
  rays, so the walk over the support grows polynomially in s.  And on P^2,
  ``lines`` = O(0) ⊕ O(D) ⊕ … ⊕ O((k-1)D) with k = s and D = D_0 + D_1 + D_2:
  every step is a coordinate subspace, so each cone, whose grid has k x k
  points, is read off its steps.
* ``classify``, on P^2 (classify_ladder's two families, at larger sizes k = s,
  and one generic family):
  ``O^k``, the trivial bundle of rank k, whose algebra is all of gl_k, so
  dim_h = k² and the report carries up to k² commutator forms of size
  k² x k², growing like k^6; and ``O(0..k-1)``, the line sum
  O(0) ⊕ O(1) ⊕ … ⊕ O(k-1), whose algebra is the upper triangular matrices,
  dim_h = k(k+1)/2; and ``generic``, three random full flags of Q^k (seed 1,
  entries in [-3, 3]), one per ray, which are compatible and whose algebra is
  the scalars, dim_h = 1.

Each bundle runs in its own process, which imports the same package as this
script, so the time includes interpreter start-up and the peak RSS is that
run's alone.  The report goes to a temporary file, which is only measured.

``--family NAME`` (repeatable) runs only the named families, for example
the generic one at sizes where ``O^k``'s report would not fit in memory.

Usage: python3 scripts/scale.py {check,classify} [--min 6] [--max 14] [--family NAME]
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import toric_cohiggs
from toric_cohiggs import (
    TVB, Filtration, Subspace, direct_sum, fan_pn, line_bundle, tangent_bundle,
)
from toric_cohiggs.serialize import bundle_to_obj


def line_sum(twists) -> toric_cohiggs.TVB:
    """O(t_0) ⊕ O(t_1) ⊕ … on P^2."""
    return functools.reduce(direct_sum, (line_bundle(fan_pn(2), t) for t in twists))


def generic_flags(k: int, seed: int = 1) -> TVB:
    """A random full flag of Q^k on each ray of P^2: the step at threshold j
    spans rows j+1.. of a random invertible matrix with entries in [-3, 3]."""
    rng, fan, filts = random.Random(seed), fan_pn(2), []
    for _ in fan.rays:
        while True:
            rows = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
            if Subspace(k, rows).dim == k:
                break
        filts.append(Filtration(k, [(j, Subspace(k, rows[j + 1:])) for j in range(k)]))
    return TVB(fan, k, tuple(filts))


# verb -> family name -> (bundle of size s, dim_h of size s or None)
FAMILIES = {
    "check": {
        "T": (lambda n: tangent_bundle(fan_pn(n)), None),
        "T+O(D0)": (lambda n: direct_sum(tangent_bundle(fan_pn(n)), line_bundle(fan_pn(n), {0: 1})),
                    None),
        "lines": (lambda k: line_sum(range(k)), None),
    },
    "classify": {
        "O^k": (lambda k: line_sum([0] * k), lambda k: k * k),
        "O(0..k-1)": (lambda k: line_sum(range(k)), lambda k: k * (k + 1) // 2),
        "generic": (generic_flags, lambda k: 1),
    },
}


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("verb", choices=FAMILIES)
    parser.add_argument("--min", type=int, default=6, help="smallest size")
    parser.add_argument("--max", type=int, default=14, help="largest size")
    parser.add_argument("--family", action="append",
                        help="run only this family of the verb (repeatable)")
    args = parser.parse_args(argv)
    if not 1 <= args.min <= args.max:
        parser.error("need 1 <= --min <= --max")
    families = FAMILIES[args.verb]
    unknown = sorted(set(args.family or ()) - set(families))
    if unknown:
        parser.error(f"no family {unknown[0]!r} for {args.verb}; choose from {sorted(families)}")
    if args.family:
        families = {name: family for name, family in families.items() if name in args.family}
    print(f"{'size':>4} {'bundle':>10} {'dim_h':>6} {'seconds':>8} {'report_bytes':>13} "
          f"{'peak_rss_mb':>12}")
    with tempfile.TemporaryDirectory() as tmp:
        for size in range(args.min, args.max + 1):
            # each report carries its input path, whose length follows the size's digits
            bundle, report = Path(tmp) / f"s{size}.bundle.json", Path(tmp) / f"s{size}.report"
            for name, (build, dim_h) in families.items():
                bundle.write_text(json.dumps(bundle_to_obj(build(size))))
                seconds, nbytes, rss = run_cli([args.verb, str(bundle), "--format", "json"], report)
                print(f"{size:>4} {name:>10} {dim_h(size) if dim_h else '-':>6} {seconds:>8.2f} "
                      f"{nbytes:>13} {rss:>12.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
