"""JSON schemas for fans, bundles, fields, and reports.

Fan files:    {"n": int, "rays": [[int,...],...], "max_cones": [[int,...],...]}
Bundle files: {"fan": <fan object or path>, "rank": int,
               "filtrations": [{"ray": int, "steps": [{"j": int,
               "basis": [["p/q",...],...]}]}]}
Field files:  {"bundle": <bundle object or path>, "tuple": [matrix,...]}

Loading checks the JSON shape, naming the key at fault; the records check
their own integers (``fans.as_int``), and ``fans.validate_fan`` alone
decides whether a fan is a fan.

Rationals travel as JSON integers or as strings "p/q" (or "p") of ASCII
digits, sign on the numerator, nonzero denominator; parsing accepts nothing
else.  Subspace bases may arrive non-canonical; parsing canonicalizes them.
Serialization is canonical (sorted keys, canonical bases, trailing newline),
so that serialize -> parse -> serialize is byte-identical.

Each value is converted once each way.  Loading parses each distinct string
of one input object once (``_entry``): a matrix entry becomes the Fraction
``Mat`` keeps, and ``linalg._rref_rows`` scales each basis row to integers
once.  A report writes each entry as an integer over a positive one, reduced
by one gcd: a subspace or algebra basis row over its pivot, a center element
from its kernel row, a form entry from the algebra's difference list.

``dumps_canonical`` writes that text itself, byte-identical to
``json.dumps(obj, sort_keys=True, indent=2)`` plus a newline: ``indent``
keeps the library on its pure-Python encoder, which dominated large reports.
Strings go through the C string encoder, and scalars and lists of ints or
of strings are written in place by their container.  A list of strings (a
matrix row) is rendered once per object: a report's matrices share one zero
row, and its forms another.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import gcd
from pathlib import Path

from .bundles import (
    BundleVerdict,
    ChernData,
    Filtration,
    TVB,
)
from .cohiggs import (
    ClassificationReport,
    FieldVerdict,
    IntegrabilityVerdict,
    ToricCoHiggsField,
)
from .endalg import FilteredEndAlgebra, TupleVarietyEqs
from .errors import SchemaError
from .fans import Fan
from .linalg import Mat, Subspace, _rational_pair, rat_str


_encode_str = json.encoder.encode_basestring_ascii  # C-accelerated when available


def scalar_json(x) -> str:
    """``json.dumps(x)`` for a scalar or an empty container."""
    t = type(x)
    if t is str:
        return _encode_str(x)
    if t is int:
        return int.__repr__(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    return json.dumps(x)


def _write(obj, pad: str, out: list, rows: dict) -> None:
    """Append ``json.dumps(obj, sort_keys=True, indent=2)`` to out, indented by pad.

    A list of ints or of strings is one chunk, written in place by the dict
    or list that holds it: the writer recurses only into other containers.
    rows maps (id, pad) of each row of strings met in a list to its chunk
    ("" if it is none), so a row object that recurs (the shared zero row)
    is rendered once.
    """
    t = type(obj)
    if t is list or t is tuple:
        if not obj:
            out.append("[]")
            return
        inner = pad + "  "
        if type(obj[0]) is int and set(map(type, obj)) == {int}:  # one chunk; no bools
            out.append(f"[\n{inner}" + f",\n{inner}".join(map(int.__repr__, obj)) + f"\n{pad}]")
            return
        sep, deeper = "[\n" + inner, inner + "  "
        for item in obj:
            out.append(sep)
            sep = ",\n" + inner
            if type(item) is list and item and type(item[0]) is str:  # a matrix row
                key = (id(item), inner)
                chunk = rows.get(key)
                if chunk is None:
                    try:
                        cells = (",\n" + deeper).join(map(_encode_str, item))
                        chunk = "[\n" + deeper + cells + "\n" + inner + "]"
                    except TypeError:  # not every item is a string
                        chunk = ""
                    rows[key] = chunk
                if chunk:
                    out.append(chunk)
                    continue
            _write(item, inner, out, rows)
        out.append("\n" + pad + "]")
    elif t is dict and all(type(k) is str for k in obj):
        if not obj:
            out.append("{}")
            return
        inner = pad + "  "
        sep, deeper = "{\n" + inner, inner + "  "
        for key in sorted(obj):
            val = obj[key]
            tv = type(val)
            head = sep + _encode_str(key) + ": "
            sep = ",\n" + inner
            if tv is str:
                out.append(head + _encode_str(val))
            elif tv is int:
                out.append(head + int.__repr__(val))
            elif tv is list and val and type(val[0]) in (int, str) and len(set(map(type, val))) == 1:
                cells = map(int.__repr__ if type(val[0]) is int else _encode_str, val)
                out.append(head + "[\n" + deeper + (",\n" + deeper).join(cells) + "\n" + inner + "]")
            else:
                out.append(head)
                _write(val, inner, out, rows)
        out.append("\n" + pad + "}")
    elif t is str or t is int or t is bool or obj is None:
        out.append(scalar_json(obj))
    else:  # floats, non-string keys, subclasses: the library encoder, re-indented
        out.append(json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n" + pad))


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, newline at end.

    Byte-identical to ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``,
    written directly: ``indent`` keeps the library off its C encoder.
    """
    out: list[str] = []
    _write(obj, "", out, {})
    out.append("\n")
    return "".join(out)


def _expect(cond: bool, msg: str):
    if not cond:
        raise SchemaError(msg)


def _is_int(x) -> bool:
    """A JSON integer; Python counts bools as ints, the schemas do not."""
    return isinstance(x, int) and not isinstance(x, bool)


def _entry(a, memo: dict, integral=int):
    """A JSON integer, or a string "p" or "p/q" of the rational grammar
    (``linalg.rat_from_str``), as ``integral(p)`` if integral, else a
    Fraction; memo maps each string parsed so far to its value.  A float is
    not exact.
    """
    if isinstance(a, str):
        got = memo.get(a)
        if got is None:
            p, q = _rational_pair(a)
            got = memo[a] = integral(p) if q == 1 else Fraction(p, q)
        return got
    _expect(_is_int(a), f"entry {a!r} is not an integer or a 'p/q' string")
    return integral(a)


# ---------------------------------------------------------------------------
# matrices and subspaces

def mat_to_obj(m: Mat) -> list[list[str]]:
    return [[rat_str(a) if a else "0" for a in row] for row in m.rows]


def mat_from_obj(obj) -> Mat:
    _expect(isinstance(obj, list) and all(isinstance(r, list) for r in obj),
            "matrix must be a list of rows")
    memo: dict = {}  # entries as the Fractions Mat keeps, so it converts none again
    try:
        return Mat([[_entry(a, memo, Fraction) for a in r] for r in obj])
    except ValueError as exc:
        raise SchemaError(f"bad matrix: {exc}") from exc


def _cells(row, d: int) -> list[str]:
    """Each entry a of an integer row as a/d in lowest terms, for d > 0."""
    if d == 1:
        return list(map(int.__repr__, row))
    return [int.__repr__(a // d) if (g := gcd(a, d)) == d else f"{a // g}/{d // g}" for a in row]


def subspace_to_obj(s: Subspace) -> list[list[str]]:
    """The basis over Q from the integer rows, each over its pivot."""
    return [_cells(row, row[p]) for row, p in zip(s.rows, s.pivots)]


def _matrices_to_obj(rows, dens, r: int, zero_row: list[str]) -> list:
    """Each integer row of r·r entries over its denominator d > 0 as an r x r
    matrix of cells; every all-zero row is the shared zero_row."""
    return [[_cells(part, d) if any(part) else zero_row
             for part in (row[i:i + r] for i in range(0, r * r, r))] for row, d in zip(rows, dens)]


def algebra_basis_to_obj(alg: FilteredEndAlgebra, zero_row: list[str]) -> list:
    """The basis matrices A_a, each the integer row R_a over its pivot entry d_a."""
    return _matrices_to_obj(alg.space.rows, alg._scales[0], alg.bundle.r, zero_row)


# ---------------------------------------------------------------------------
# fans

def fan_to_obj(fan: Fan) -> dict:
    return {
        "n": fan.n,
        "rays": [list(r) for r in fan.rays],
        "max_cones": [list(c.ray_indices) for c in fan.max_cones],
    }


def fan_from_obj(obj) -> Fan:
    """The Fan of a JSON object whose shape alone is checked here: ``Fan`` and
    ``Cone`` check its integers, and ``fans.validate_fan`` its fan rules."""
    _expect(isinstance(obj, dict), "fan must be an object")
    for key in ("n", "rays", "max_cones"):
        _expect(key in obj, f"fan object lacks key {key!r}")
    for key in ("rays", "max_cones"):
        _expect(isinstance(obj[key], list) and all(isinstance(x, list) for x in obj[key]),
                f"fan {key!r} must be a list of lists")
    try:
        return Fan(obj["n"], obj["rays"], obj["max_cones"])
    except ValueError as exc:
        raise SchemaError(f"bad fan: {exc}") from exc


# ---------------------------------------------------------------------------
# bundles

def bundle_to_obj(v: TVB) -> dict:
    return {
        "fan": fan_to_obj(v.fan),
        "rank": v.r,
        "filtrations": [
            {"ray": i, "steps": [{"j": j, "basis": subspace_to_obj(s)} for j, s in f.steps]}
            for i, f in enumerate(v.filts)
        ],
    }


def bundle_from_obj(obj, base_dir: Path | None = None) -> TVB:
    _expect(isinstance(obj, dict), "bundle must be an object")
    for key in ("fan", "rank", "filtrations"):
        _expect(key in obj, f"bundle object lacks key {key!r}")
    fan = fan_from_obj(_inline_or_file(obj["fan"], base_dir)[0])
    rank = obj["rank"]
    _expect(_is_int(rank) and rank >= 1, "'rank' must be a positive integer")
    filt_objs = obj["filtrations"]
    _expect(isinstance(filt_objs, list), "filtrations must be a list")
    by_ray: dict[int, Filtration] = {}
    memo: dict = {}
    for fo in filt_objs:
        _expect(isinstance(fo, dict) and "ray" in fo and "steps" in fo,
                "each filtration needs 'ray' and 'steps'")
        ray = fo["ray"]
        if not _is_int(ray):
            raise SchemaError(f"filtration 'ray' must be an integer, got {ray!r}")
        if not 0 <= ray < len(fan.rays):
            raise SchemaError(f"filtration ray index {ray} out of range")
        if ray in by_ray:
            raise SchemaError(f"two filtrations for ray {ray}")
        steps = []
        _expect(isinstance(fo["steps"], list), f"filtration 'steps' for ray {ray} must be a list")
        for so in fo["steps"]:
            _expect(isinstance(so, dict) and "j" in so and "basis" in so,
                    "each step needs 'j' and 'basis'")
            _expect(isinstance(so["basis"], list)
                    and all(isinstance(row, list) for row in so["basis"]),
                    "step basis must be a list of rows")
            try:
                sub = Subspace(rank, [[_entry(a, memo) for a in row] for row in so["basis"]])
            except ValueError as exc:
                raise SchemaError(f"bad step basis for ray {ray}: {exc}") from exc
            steps.append((so["j"], sub))
        try:
            by_ray[ray] = Filtration(rank, steps)
        except ValueError as exc:
            raise SchemaError(f"bad filtration for ray {ray}: {exc}") from exc
    missing = sorted(set(range(len(fan.rays))) - set(by_ray))
    _expect(not missing, f"no filtration given for ray {missing[0] if missing else 0}")
    return TVB(fan, rank, tuple(by_ray[i] for i in range(len(fan.rays))))


# ---------------------------------------------------------------------------
# fields

def field_to_obj(field: ToricCoHiggsField) -> dict:
    return {
        "bundle": bundle_to_obj(field.bundle),
        "tuple": [mat_to_obj(m) for m in field.mats],
    }


def field_from_obj(obj, base_dir: Path | None = None) -> ToricCoHiggsField:
    _expect(isinstance(obj, dict), "field must be an object")
    for key in ("bundle", "tuple"):
        _expect(key in obj, f"field object lacks key {key!r}")
    bundle = bundle_from_obj(*_inline_or_file(obj["bundle"], base_dir))
    mats_obj = obj["tuple"]
    _expect(isinstance(mats_obj, list), "tuple must be a list of matrices")
    mats = tuple(map(mat_from_obj, mats_obj))
    try:
        return ToricCoHiggsField(bundle, mats)  # checks the count and the shapes
    except ValueError as exc:
        raise SchemaError(f"bad field: {exc}") from exc


# ---------------------------------------------------------------------------
# file plumbing

def _inline_or_file(spec, base_dir: Path | None) -> tuple[object, Path | None]:
    """A bundle's "fan" or a field's "bundle" and the directory its own paths
    are relative to: an inline object with base_dir, or the JSON of the file
    a path string names (relative to base_dir, if given) with its directory.
    """
    if not isinstance(spec, str):
        return spec, base_dir
    path = Path(spec) if base_dir is None else base_dir / spec  # an absolute spec wins
    return _load_json(path), path.parent


def _load_json(path: Path):
    try:
        text = path.read_text()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, or not UTF-8
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise SchemaError(f"{path} is nested too deeply to parse") from exc
    except ValueError as exc:  # also an integer literal over Python's digit limit
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc


def load_bundle(path) -> TVB:
    p = Path(path)
    return bundle_from_obj(_load_json(p), base_dir=p.parent)


def load_field(path) -> ToricCoHiggsField:
    p = Path(path)
    return field_from_obj(_load_json(p), base_dir=p.parent)


def save_json(path, obj) -> None:
    Path(path).write_text(dumps_canonical(obj))


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# reports

def chern_to_obj(data: ChernData) -> dict:
    return {
        "cones": [
            {
                "cone": idx,
                "classes": [{"u": list(u), "mult": m} for u, m in classes],
            }
            for idx, classes in data.by_cone
        ]
    }


def bundle_verdict_to_obj(verdict: BundleVerdict) -> dict:
    out: dict = {"compatible": verdict.compatible, "status": verdict.status}
    if verdict.cone_index is not None:
        out["cone"] = verdict.cone_index
    if verdict.certificate is not None:
        out["certificate"] = verdict.certificate
    if verdict.gradings is not None:
        out["gradings"] = [
            {
                "cone": idx,
                "pieces": [
                    {"u": list(u), "basis": subspace_to_obj(s)}
                    for u, s in g.pieces
                ],
            }
            for idx, g in enumerate(verdict.gradings)
        ]
    return out


def tuple_eqs_to_obj(eqs: TupleVarietyEqs) -> dict:
    """The forms as dense rows from the differences: B_k[a][b] = -B_k[b][a] =
    (P_ab[k] - P_ba[k]) / (d_a d_b); every all-zero row is one shared row."""
    zero_row, dens = ["0"] * eqs.dim, eqs.algebra._scales[0]
    forms: dict[int, list] = {}
    for a, b, k, diff in eqs.algebra.differences if eqs.n > 1 else ():
        rows = forms.get(k) or forms.setdefault(k, [zero_row] * eqs.dim)
        den = dens[a] * dens[b]
        g = gcd(diff, den)
        for i, j, x in ((a, b, diff // g), (b, a, -diff // g)):
            if rows[i] is zero_row:
                rows[i] = zero_row.copy()
            rows[i][j] = int.__repr__(x) if g == den else f"{x}/{den // g}"
    return {
        "n": eqs.n,
        "dim": eqs.dim,
        "pairs": [list(p) for p in eqs.pairs],
        "forms": [forms[k] for k in sorted(forms)],
        "forms_note": "the same bilinear forms apply to every slot pair",
    }


def field_verdict_to_obj(verdict: FieldVerdict) -> dict:
    return {
        "valid": verdict.valid,
        "filtration_violations": [list(v) for v in verdict.filtration_violations],
        "commutator_violations": [list(v) for v in verdict.commutator_violations],
    }


def integrability_to_obj(verdict: IntegrabilityVerdict) -> dict:
    out: dict = {"valid": verdict.valid}
    if verdict.first_failure is not None:
        cone, k, l = verdict.first_failure
        out["first_failure"] = {"cone": cone, "chart_pair": [k, l]}
    return out


def classification_to_obj(report: ClassificationReport) -> dict:
    alg, cen, zero_row = report.algebra, report.center, ["0"] * report.rank
    basis = algebra_basis_to_obj(alg, zero_row)
    # each center element is the combination of its kernel row y over y[p]·L
    dens = [y[p] * alg._scales[1] for y, p in zip(cen.rows, cen.pivots)]
    out: dict = {
        "rank": report.rank,
        "n": report.n,
        "compatible": report.bundle_status == "compatible",
        "bundle_status": report.bundle_status,
        "dim_h": report.dim_h,
        "basis": basis,
        "commutative": report.commutative,
        "center": _matrices_to_obj(map(alg.combination, cen.rows), dens, report.rank, zero_row),
        "center_dim": cen.dim,
        "notes": list(report.notes),
        "warnings": list(report.warnings),
    }
    if report.bundle_certificate is not None:
        out["certificate"] = report.bundle_certificate
    if report.parameters is not None:
        out["parameters"] = report.parameters
    if report.commutative:
        zero, n = [zero_row] * report.rank, report.n
        out["generators"] = [[m if j == slot else zero for j in range(n)]
                             for slot in range(n) for m in basis]
    if report.tuple_equations is not None:
        out["tuple_equations"] = tuple_eqs_to_obj(report.tuple_equations)
    if report.chern is not None:
        out["chern"] = chern_to_obj(report.chern)
    return out
