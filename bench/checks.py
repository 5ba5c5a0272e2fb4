"""Output checks, independent of the program under test.

Every report is checked against facts the benchmark knows from its own input
models, with its own small exact elimination (``rank``), and, where a
reference was pinned, against the pinned canonical report bytes.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction


def rank(vectors) -> int:
    """Rank of a list of rational vectors, by exact Gaussian elimination.

    Also the reference computation that times are measured in (``run.py``):
    editing it changes the unit of every ``*_ref`` metric.
    """
    rows = [[Fraction(x) for x in v] for v in vectors]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][col] != 0:
                f = rows[i][col] / rows[r][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def same_span(a, b) -> bool:
    ra = rank(a)
    return ra == rank(b) and ra == rank(list(a) + list(b))


def filtration_value(steps, r: int, i: int) -> list:
    """F(i) of a model filtration, as a list of spanning vectors."""
    value = [tuple(int(k == m) for m in range(r)) for k in range(r)]
    for j, basis in steps:
        if j < i:
            value = list(basis)
    return value


def _parse_vec(v) -> tuple:
    return tuple(Fraction(x) for x in v)


def grading_failure(bundle, gradings) -> str | None:
    """Re-verify the per-cone gradings of a ``compatible`` check report.

    On every maximal cone the pieces must be independent, their dimensions
    must sum to the rank, and for each ray rho of the cone and every level i,
    span{pieces u with <u, rho> >= i} must equal F_rho(i).
    """
    r = bundle.rank
    cones = bundle.fan["max_cones"]
    if len(gradings) != len(cones):
        return f"{len(gradings)} gradings for {len(cones)} cones"
    for g in gradings:
        idx = g["cone"]
        pieces = [(tuple(p["u"]), [_parse_vec(v) for v in p["basis"]]) for p in g["pieces"]]
        vectors = [v for _, basis in pieces for v in basis]
        if len(vectors) != r:
            return f"cone {idx}: piece dimensions sum to {len(vectors)}, rank is {r}"
        if rank(vectors) != r:
            return f"cone {idx}: pieces are not independent"
        for ray_idx in cones[idx]:
            ray = bundle.fan["rays"][ray_idx]
            steps = bundle.steps[ray_idx]
            pairings = [sum(a * b for a, b in zip(u, ray)) for u, _ in pieces]
            levels = [j for j, _ in steps] + pairings
            for i in range(min(levels), max(levels) + 2):
                rebuilt = [v for (_, basis), p in zip(pieces, pairings) if p >= i for v in basis]
                if not same_span(rebuilt, filtration_value(steps, r, i)):
                    return f"cone {idx}, ray {ray_idx}, level {i}: pieces do not rebuild F(i)"
    return None


def _matmul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def field_violations(bundle, mats) -> tuple[list, list]:
    """(filtration violations, commutator violations) of a field tuple.

    A filtration violation (slot, ray, j) means the slot's matrix does not map
    the proper nonzero step subspace at threshold j of that ray into itself.
    """
    r = bundle.rank
    filt_bad = []
    for slot, a in enumerate(mats):
        for ray_idx, steps in enumerate(bundle.steps):
            for j, basis in steps:
                if len(basis) in (0, r):
                    continue
                images = [tuple(sum(x * y for x, y in zip(row, w)) for row in a) for w in basis]
                if rank(list(basis) + images) != len(basis):
                    filt_bad.append([slot, ray_idx, j])
    comm_bad = [
        [i, j]
        for i in range(len(mats))
        for j in range(i + 1, len(mats))
        if _matmul(mats[i], mats[j]) != _matmul(mats[j], mats[i])
    ]
    return filt_bad, comm_bad


def fact_failure(op, report: dict) -> str | None:
    """First independent fact the report contradicts, or None."""
    if op.verb == "check":
        status = report.get("status")
        if op.compatible and status != "compatible":
            return f"built compatible, reported {status}"
        if status == "compatible":
            return grading_failure(op.bundle, report.get("gradings", []))
        return None
    if op.verb == "classify":
        if report.get("bundle_status") != "compatible":
            return f"line sum reported {report.get('bundle_status')}"
        if report.get("dim_h") != op.dim_h:
            return f"dim_h {report.get('dim_h')}, expected {op.dim_h}"
        if len(report.get("basis", [])) != op.dim_h:
            return "basis length differs from dim_h"
        if report.get("center_dim") != 1:
            # both ladders are algebras with a scalar center: a connected
            # incidence algebra, or the full matrix algebra
            return f"center_dim {report.get('center_dim')}, expected 1"
        if report.get("commutative") is not (op.bundle.rank == 1):
            return f"commutative is {report.get('commutative')}"
        return None
    if op.verb == "validate-field":
        if report.get("integrability_agrees") is not True:
            return "chart integrability disagrees with the direct check"
        filt_bad, comm_bad = field_violations(op.bundle, op.mats)
        if report.get("filtration_violations") != filt_bad:
            return "filtration violations differ from the recomputation"
        if report.get("commutator_violations") != comm_bad:
            return "commutator violations differ from the recomputation"
        if report.get("valid") is not (not filt_bad and not comm_bad):
            return f"valid is {report.get('valid')}"
        return None
    return f"no checks for verb {op.verb!r}"


def canonical_digest(report: dict) -> str:
    """sha256 of the canonical report bytes with the run-specific input paths removed."""
    stripped = dict(report)
    stripped["inputs"] = {
        k: {kk: vv for kk, vv in v.items() if kk != "path"}
        for k, v in report.get("inputs", {}).items()
    }
    text = json.dumps(stripped, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def status_of(report: dict) -> str | None:
    return report.get("status", report.get("bundle_status"))


def reference_failure(report: dict, pinned: dict) -> str | None:
    """Compare against the pinned reference entry of the same operation.

    A verdict pinned as ``indeterminate`` also accepts ``incompatible``, and
    ``compatible`` (whose grading the fact check re-verifies), so that a
    complete oracle is not counted as a failure.
    """
    if canonical_digest(report) == pinned["sha256"]:
        return None
    if pinned.get("status") == "indeterminate" and status_of(report) in ("incompatible", "compatible"):
        return None
    return f"report differs from the pinned reference (pinned status {pinned.get('status')})"


def output_failure(op, code, stdout: str, pinned: dict | None) -> tuple[str | None, dict | None]:
    """(failure message or None, parsed report) for one operation."""
    if code != 0:
        return f"exit code {code}", None
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}", None
    try:
        failure = fact_failure(op, report)
        if failure is None and pinned is not None:
            failure = reference_failure(report, pinned)
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}", None
    return failure, report
