#!/usr/bin/env python3
"""Time, report size and peak memory of ``classify`` on O^r over P^2.

O^r, the trivial bundle of rank r, has all of gl_r as its endomorphism
algebra: dim_h = r², and the report carries up to r² commutator forms of
size r² x r², so it grows like r^6.  Each rank runs in its own process
(``child_run.run_cli``), so the time includes start-up and the peak RSS is
that run's alone.  The report goes to a temporary file, which is only
measured.

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


def trivial_bundle_obj(r: int) -> dict:
    fan = fan_pn(2)
    v = line_bundle(fan, 0)
    for _ in range(r - 1):
        v = direct_sum(v, line_bundle(fan, 0))
    return bundle_to_obj(v)


def run_one(r: int, workdir: Path) -> tuple[float, int, float]:
    """(seconds, report bytes, peak RSS in MB) of one ``classify`` child."""
    bundle = workdir / f"o{r}.bundle.json"
    bundle.write_text(json.dumps(trivial_bundle_obj(r)))
    return run_cli(["classify", str(bundle), "--format", "json"], workdir / f"o{r}.report")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--min", type=int, default=6, help="smallest rank r")
    parser.add_argument("--max", type=int, default=14, help="largest rank r")
    args = parser.parse_args(argv)
    if not 1 <= args.min <= args.max:
        parser.error("need 1 <= --min <= --max")
    print(f"{'r':>3} {'dim_h':>6} {'seconds':>8} {'report_bytes':>13} {'peak_rss_mb':>12}")
    with tempfile.TemporaryDirectory() as tmp:
        for r in range(args.min, args.max + 1):
            seconds, size, rss = run_one(r, Path(tmp))
            print(f"{r:>3} {r * r:>6} {seconds:>8.2f} {size:>13} {rss:>12.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
