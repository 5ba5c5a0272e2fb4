#!/usr/bin/env python3
"""Record the verdicts for the nilpotent tangent-to-line candidate tuple.

For the bundle TX ⊕ O on P^1 and P^2, with the line summand's filtration
shifted by every constant in {-1, 0, 1}, run both field checkers on the
candidate tuple and print what they say.  The commutation and chart
integrability checks always pass (the matrices multiply to zero); whether the
tuple preserves the filtrations depends on the linearization shift, and that
outcome is pinned as a golden file so any behavioral drift fails the build.

Usage:
    python3 scripts/canonical_pair_experiment.py            # print the table
    python3 scripts/canonical_pair_experiment.py --write    # refresh the golden file
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from toric_cohiggs import (
    ToricCoHiggsField,
    canonical_pair,
    direct_sum,
    fan_pn,
    line_bundle,
    tangent_bundle,
    validate_field,
    verify_integrability,
)

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden" / "canonical_pair.json"

SHIFTS = (-1, 0, 1)
VARIETIES = (("pn1", 1), ("pn2", 2))


def run_cases() -> list[dict]:
    cases = []
    for name, n in VARIETIES:
        fan = fan_pn(n)
        _, mats = canonical_pair(fan)
        for shift in SHIFTS:
            bundle = direct_sum(tangent_bundle(fan), line_bundle(fan, shift))
            field = ToricCoHiggsField(bundle, mats)
            verdict = validate_field(field)
            integ = verify_integrability(field)
            cases.append(
                {
                    "variety": name,
                    "shift": shift,
                    "trivial_linearization": shift == 0,
                    "filtration_preserving": verdict.filtration_ok,
                    "filtration_violations": [
                        list(v) for v in verdict.filtration_violations
                    ],
                    "commutation_ok": verdict.commutation_ok,
                    "integrability_valid": integ.valid,
                }
            )
    cases.sort(key=lambda c: (c["variety"], c["shift"]))
    return cases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write", action="store_true", help="refresh the golden file")
    args = parser.parse_args(argv)
    cases = run_cases()
    for c in cases:
        print(
            f"{c['variety']:5s} shift={c['shift']:+d}  "
            f"filtration_preserving={str(c['filtration_preserving']):5s}  "
            f"commutation={c['commutation_ok']}  integrability={c['integrability_valid']}"
        )
    if args.write:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps({"cases": cases}, indent=2, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
