#!/usr/bin/env python3
"""Time, report size and peak memory of ``check`` on bundles over P^n.

Two bundles per rung: the tangent bundle T and T ⊕ O(D_0).  Both are
compatible; each maximal cone's threshold grid has 2^n points, but the
filtration values are nonzero only at the empty face and at single rays, so
the walk over the support grows polynomially in n.  Each bundle runs in its
own process (``child_run.run_cli``), so the time includes start-up and the
peak RSS is that run's alone.  The report goes to a temporary file, which is
only measured.

Usage: python3 scripts/check_scale.py [--min 6] [--max 14]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from child_run import run_cli
from toric_cohiggs import direct_sum, fan_pn, line_bundle, tangent_bundle
from toric_cohiggs.serialize import bundle_to_obj

BUNDLES = {
    "T": tangent_bundle,
    "T+O(D0)": lambda fan: direct_sum(tangent_bundle(fan), line_bundle(fan, {0: 1})),
}


def run_one(n: int, name: str, workdir: Path) -> tuple[float, int, float]:
    """(seconds, report bytes, peak RSS in MB) of one ``check`` child."""
    bundle = workdir / f"p{n}.bundle.json"
    bundle.write_text(json.dumps(bundle_to_obj(BUNDLES[name](fan_pn(n)))))
    return run_cli(["check", str(bundle), "--format", "json"], workdir / f"p{n}.report")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--min", type=int, default=6, help="smallest dimension n")
    parser.add_argument("--max", type=int, default=14, help="largest dimension n")
    args = parser.parse_args(argv)
    if not 1 <= args.min <= args.max:
        parser.error("need 1 <= --min <= --max")
    print(f"{'n':>3} {'bundle':>8} {'seconds':>8} {'report_bytes':>13} {'peak_rss_mb':>12}")
    with tempfile.TemporaryDirectory() as tmp:
        for n in range(args.min, args.max + 1):
            for name in BUNDLES:
                seconds, size, rss = run_one(n, name, Path(tmp))
                print(f"{n:>3} {name:>8} {seconds:>8.2f} {size:>13} {rss:>12.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
