#!/usr/bin/env python3
"""Time, report size and peak memory of ``classify`` on two families over P^2.

Both families are classify_ladder's, at larger sizes k:

* ``O^k``, the trivial bundle of rank k: all of gl_k is its endomorphism
  algebra, dim_h = k², and the report carries up to k² commutator forms of
  size k² x k², so it grows like k^6;
* ``O(0..k-1)``, the line sum O(0) ⊕ O(1) ⊕ … ⊕ O(k-1): its algebra is
  the upper triangular matrices, dim_h = k(k+1)/2.

Each bundle runs in its own process (``child_run.run_cli``), so the time
includes start-up and the peak RSS is that run's alone.  The report goes to
a temporary file, which is only measured.

Usage: python3 scripts/classify_scale.py [--min 6] [--max 14]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from child_run import run_cli
from toric_cohiggs import direct_sum, fan_pn, line_bundle
from toric_cohiggs.serialize import bundle_to_obj

# family name -> (twists of its k line bundles, dim_h)
FAMILIES = {
    "O^k": (lambda k: [0] * k, lambda k: k * k),
    "O(0..k-1)": (lambda k: list(range(k)), lambda k: k * (k + 1) // 2),
}


def line_sum_obj(twists: list[int]) -> dict:
    fan = fan_pn(2)
    v = line_bundle(fan, twists[0])
    for t in twists[1:]:
        v = direct_sum(v, line_bundle(fan, t))
    return bundle_to_obj(v)


def run_one(k: int, family: str, workdir: Path) -> tuple[float, int, float]:
    """(seconds, report bytes, peak RSS in MB) of one ``classify`` child."""
    bundle = workdir / f"k{k}.bundle.json"
    bundle.write_text(json.dumps(line_sum_obj(FAMILIES[family][0](k))))
    return run_cli(["classify", str(bundle), "--format", "json"], workdir / f"k{k}.report")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--min", type=int, default=6, help="smallest size k")
    parser.add_argument("--max", type=int, default=14, help="largest size k")
    args = parser.parse_args(argv)
    if not 1 <= args.min <= args.max:
        parser.error("need 1 <= --min <= --max")
    print(f"{'k':>3} {'bundle':>10} {'dim_h':>6} {'seconds':>8} {'report_bytes':>13} "
          f"{'peak_rss_mb':>12}")
    with tempfile.TemporaryDirectory() as tmp:
        for k in range(args.min, args.max + 1):
            for family, (_, dim_h) in FAMILIES.items():
                seconds, size, rss = run_one(k, family, Path(tmp))
                print(f"{k:>3} {family:>10} {dim_h(k):>6} {seconds:>8.2f} {size:>13} "
                      f"{rss:>12.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
