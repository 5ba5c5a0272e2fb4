"""Command-line front end.

Verbs: check, endalg, classify, validate-field, chern, example.  Negative
mathematical verdicts are data (exit 0, or 3 under --strict); exit 1 means
malformed input and exit 2 an internal invariant violation.  JSON output is
canonical: sorted keys, rationals as "p/q" strings, byte-identical across
runs.  Compatibility verdicts are complete at every rank.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import serialize
from .bundles import (
    TVB,
    Filtration,
    equivariant_chern_data,
    is_vector_bundle,
    tangent_bundle,
)
from .cohiggs import (
    ToricCoHiggsField,
    canonical_pair,
    classify,
    validate_field,
    verify_integrability,
)
from .endalg import center, filtered_endos, is_commutative, tuple_variety_equations
from .errors import InternalError, SchemaError
from .fans import Cone, Fan, fan_hirzebruch, fan_pn, fan_product, validate_fan
from .linalg import Subspace
from .serialize import scalar_json


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors (2 is reserved for internal bugs)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> _Parser:
    parser = _Parser(prog="toric-cohiggs", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (arg, help_, _) in VERBS.items():
        p = sub.add_parser(verb, help=help_)
        p.add_argument(arg)
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--output", help="also write the JSON report to this path")
        p.add_argument(
            "--strict",
            action="store_true",
            help="exit 3 when the mathematical verdict is negative",
        )

    p = sub.add_parser("example", help="write a built-in fixture file, print its path")
    p.add_argument(
        "kind", choices=("tangent", "hirzebruch", "canonical", "three-lines")
    )
    p.add_argument("--variety", choices=("pn", "p1xp1", "p1xp2"), default="pn")
    p.add_argument("--dim", type=int, default=2, help="n for --variety pn")
    p.add_argument("--a", type=int, default=0, help="Hirzebruch twist")
    p.add_argument("--output", help="where to write the fixture")
    return parser


# ---------------------------------------------------------------------------
# fixtures

_MAX_DIM = 100  # example canonical --dim 100 writes 14 MB, and the output grows as n^3


def _example_fan(variety: str, dim: int) -> tuple[Fan, str]:
    if variety == "pn":
        if dim < 1:
            raise SchemaError(f"--dim {dim}: projective space fan needs n >= 1")
        if dim > _MAX_DIM:
            raise SchemaError(f"--dim {dim}: at most {_MAX_DIM}, since the fixture grows as n^3")
        return fan_pn(dim), f"pn{dim}"
    if variety == "p1xp1":
        return fan_product(fan_pn(1), fan_pn(1)), variety
    return fan_product(fan_pn(1), fan_pn(2)), variety


def three_lines_bundle() -> TVB:
    """Rank 2 on the single cone spanned by e1,e2,e3; three distinct lines."""
    fan = Fan(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), (Cone((0, 1, 2)),))
    lines = [Subspace(2, [(1, 0)]), Subspace(2, [(0, 1)]), Subspace(2, [(1, 1)])]
    filts = tuple(Filtration(2, [(0, line), (1, Subspace.zero(2))]) for line in lines)
    return TVB(fan, 2, filts)


def _make_example(args) -> tuple[str, dict]:
    if args.kind == "tangent":
        fan, tag = _example_fan(args.variety, args.dim)
        return f"tangent_{tag}.bundle.json", serialize.bundle_to_obj(tangent_bundle(fan))
    if args.kind == "hirzebruch":
        if args.a < 0:
            raise SchemaError("--a must be >= 0")
        fan = fan_hirzebruch(args.a)
        return (
            f"hirzebruch_a{args.a}.bundle.json",
            serialize.bundle_to_obj(tangent_bundle(fan)),
        )
    if args.kind == "canonical":
        fan, tag = _example_fan(args.variety, args.dim)
        bundle, mats = canonical_pair(fan)
        field = ToricCoHiggsField(bundle, mats)
        return f"canonical_{tag}.field.json", serialize.field_to_obj(field)
    return "three_lines.bundle.json", serialize.bundle_to_obj(three_lines_bundle())


# ---------------------------------------------------------------------------
# report rendering

def _text_lines(obj, indent=0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for key in sorted(obj):
            val = obj[key]
            if isinstance(val, (dict, list)) and val:
                lines.append(f"{pad}{key}:")
                lines.extend(_text_lines(val, indent + 1))
            else:
                lines.append(f"{pad}{key}: {scalar_json(val)}")
    elif isinstance(obj, list):
        for val in obj:
            if isinstance(val, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_text_lines(val, indent + 1))
            else:
                lines.append(f"{pad}- {scalar_json(val)}")
    else:
        lines.append(f"{pad}{scalar_json(obj)}")
    return lines


def _emit(report: dict, args) -> None:
    text = serialize.dumps_canonical(report) if args.output or args.format == "json" else None
    if args.output:
        Path(args.output).write_text(text)
    if args.format == "json":
        sys.stdout.write(text)
    else:
        sys.stdout.write("\n".join(_text_lines(report)) + "\n")


# ---------------------------------------------------------------------------
# report verbs: each handler takes the loaded bundle or field and returns
# (report body, verdict positive); main adds "verb" and "inputs"

def _check(bundle: TVB) -> tuple[dict, bool]:
    verdict = is_vector_bundle(bundle)
    return serialize.bundle_verdict_to_obj(verdict), verdict.compatible


def _endalg(bundle: TVB) -> tuple[dict, bool]:
    alg = filtered_endos(bundle)
    return {
        "dim": alg.dim,
        "basis": serialize.algebra_basis_to_obj(alg, ["0"] * bundle.r),
        "commutative": is_commutative(alg),
        "center_dim": center(alg).dim,
        "tuple_equations": serialize.tuple_eqs_to_obj(tuple_variety_equations(alg, bundle.fan.n)),
        "notes": [
            "dim counts the linear algebra of filtered endomorphisms; its "
            "invertible elements form the automorphism group, an open condition"
        ],
    }, True


def _classify(bundle: TVB) -> tuple[dict, bool]:
    report = classify(bundle)
    return serialize.classification_to_obj(report), report.bundle_status == "compatible"


def _validate_field(field: ToricCoHiggsField) -> tuple[dict, bool]:
    verdict = validate_field(field)
    integrability = verify_integrability(field)
    if integrability.valid != verdict.commutation_ok:
        raise InternalError("chart commutation disagrees with the direct check")
    return {
        **serialize.field_verdict_to_obj(verdict),
        "integrability": serialize.integrability_to_obj(integrability),
        "integrability_agrees": True,
    }, verdict.valid


def _chern(bundle: TVB) -> tuple[dict, bool]:
    verdict = is_vector_bundle(bundle)
    if not verdict.compatible:
        return serialize.bundle_verdict_to_obj(verdict), False
    chern = serialize.chern_to_obj(equivariant_chern_data(bundle, verdict))
    return {"compatible": True, "chern": chern}, True


# verb -> (input argument, help, handler); the input is read by serialize.load_<argument>
VERBS = {
    "check": ("bundle", "compatibility of a bundle file", _check),
    "endalg": ("bundle", "filtered endomorphism algebra of a bundle", _endalg),
    "classify": ("bundle", "classify valid field tuples on a bundle", _classify),
    "validate-field": ("field", "validate a field file", _validate_field),
    "chern": ("bundle", "fixed-point character data of a bundle", _chern),
}


def _run_example(args) -> int:
    default_name, obj = _make_example(args)
    path = Path(args.output) if args.output else Path.cwd() / default_name
    serialize.save_json(path, obj)
    print(path)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "example":
            return _run_example(args)
        arg, _, handler = VERBS[args.verb]
        path = getattr(args, arg)
        loaded = getattr(serialize, f"load_{arg}")(path)
        bundle, what = (loaded.bundle, "field bundle") if arg == "field" else (loaded, "bundle")
        fan_verdict = validate_fan(bundle.fan)
        if not fan_verdict.ok:
            raise SchemaError(f"{what} fan is invalid: {fan_verdict.reason}")
        body, positive = handler(loaded)
        digest = {"path": path, "sha256": serialize.file_digest(path)}
        _emit({"verb": args.verb, "inputs": {arg: digest}, **body}, args)
        return 3 if args.strict and not positive else 0
    except (SchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything else is a broken invariant, not bad input
        if isinstance(exc, ValueError) and "integer string conversion" in str(exc):
            # str() of a result over the interpreter's digit limit: the input's
            # numbers are too large to report, which is bad input, not a bug
            print(f"error: the input's numbers are too large to report: {exc}", file=sys.stderr)
            return 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
