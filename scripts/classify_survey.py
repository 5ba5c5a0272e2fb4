#!/usr/bin/env python3
"""Classify the built-in bundle zoo and print one summary line per bundle.

Covers tangent bundles of projective spaces and products, Hirzebruch
surfaces, line bundles, and tangent-plus-line direct sums.

Usage: python3 scripts/classify_survey.py [--json]
"""

from __future__ import annotations

import argparse
import sys

from toric_cohiggs import (
    classify,
    direct_sum,
    fan_hirzebruch,
    fan_pn,
    fan_product,
    line_bundle,
    tangent_bundle,
)
from toric_cohiggs.serialize import classification_to_obj, dumps_canonical


def build_zoo():
    fans = {
        "pn1": fan_pn(1),
        "pn2": fan_pn(2),
        "pn3": fan_pn(3),
        "pn4": fan_pn(4),
        "p1xp1": fan_product(fan_pn(1), fan_pn(1)),
        "p1xp2": fan_product(fan_pn(1), fan_pn(2)),
        "hirz0": fan_hirzebruch(0),
        "hirz1": fan_hirzebruch(1),
        "hirz2": fan_hirzebruch(2),
        "hirz3": fan_hirzebruch(3),
    }
    zoo = {}
    for name, fan in fans.items():
        zoo[f"tangent_{name}"] = tangent_bundle(fan)
        zoo[f"tangent_plus_line_{name}"] = direct_sum(
            tangent_bundle(fan), line_bundle(fan, 1)
        )
    return zoo


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", action="store_true", help="emit full JSON reports")
    args = parser.parse_args(argv)
    zoo = build_zoo()
    reports = {}
    for name, bundle in sorted(zoo.items()):
        rep = classify(bundle)
        reports[name] = classification_to_obj(rep)
        params = rep.parameters if rep.parameters is not None else "-"
        print(
            f"{name:28s} rank={rep.rank}  status={rep.bundle_status:12s} "
            f"dim_h={rep.dim_h:2d}  commutative={str(rep.commutative):5s} "
            f"parameters={params}"
        )
    if args.json:
        sys.stdout.write(dumps_canonical(reports))
    return 0


if __name__ == "__main__":
    sys.exit(main())
