"""Invariant co-Higgs fields as commuting tuples of filtered endomorphisms.

A field on a rank-r bundle over an n-dimensional fan is an n-tuple of r x r
matrices: the coordinates of the field in the frame of the n invariant vector
fields attached to the torus coordinates.  A tuple is valid when every entry
preserves every filtration step and all entries pairwise commute.  Expanding
the field in the affine chart of a maximal cone rewrites the tuple through
the cone's dual basis, which gives an independent route to the commutation
check: the chart matrices of a cone must themselves commute, and one cone
decides every cone (``verify_integrability``).

Both checks are decided on integer multiples of the matrices (see
``linalg.commutes`` and ``linalg.preserves``), which is exact because
commutation and invariance do not change under nonzero scaling.  The chart
matrices M_k = Σ_j u^k_j A_j have integer coefficients u^k because the cones
are smooth, so with D a common denominator of the tuple, D·M_k is an integer
combination of the integer matrices D·A_j.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from typing import Sequence

from .bundles import (
    ChernData,
    TVB,
    direct_sum,
    equivariant_chern_data,
    is_vector_bundle,
    line_bundle,
    tangent_bundle,
)
from .endalg import (
    FilteredEndAlgebra,
    TupleVarietyEqs,
    center,
    filtered_endos,
    is_commutative,
    tuple_variety_equations,
)
from .fans import Character, Cone, Fan, dual_basis
from .linalg import Mat, Subspace, _integer_commute, as_vec, commutes, preserves
from .records import Record


class ToricCoHiggsField(Record):
    """A candidate field: one matrix per lattice direction, validity separate."""

    bundle: TVB
    mats: tuple[Mat, ...]

    def __post_init__(self):
        object.__setattr__(self, "mats", tuple(self.mats))
        if len(self.mats) != self.bundle.fan.n:
            raise ValueError(
                f"{len(self.mats)} matrices for lattice rank {self.bundle.fan.n}"
            )
        for m in self.mats:
            if m.nrows != self.bundle.r or m.ncols != self.bundle.r:
                raise ValueError("field matrices must be rank x rank")

    @cached_property
    def _scaled(self) -> tuple[int, list[list[list[int]]]]:
        """(D, [D·A_1, ..., D·A_n]) with D the lcm of the denominators of the tuple."""
        forms = [a._integer_form() for a in self.mats]
        den = lcm(*(d for d, _ in forms))
        return den, [
            rows if d == den else [[den // d * x for x in row] for row in rows] for d, rows in forms
        ]


class FieldVerdict(Record):
    """Validity report: every violated step and every failed commutator."""

    valid: bool
    filtration_violations: tuple[tuple[int, int, int], ...]  # (slot, ray, threshold)
    commutator_violations: tuple[tuple[int, int], ...]  # (slot, slot), 0-based

    @property
    def filtration_ok(self) -> bool:
        return not self.filtration_violations

    @property
    def commutation_ok(self) -> bool:
        return not self.commutator_violations


def validate_field(field: ToricCoHiggsField) -> FieldVerdict:
    """Direct check of filtration preservation and pairwise commutation."""
    v, mats = field.bundle, field.mats
    n = v.fan.n
    filt_bad = tuple(
        (slot, ray_idx, j)
        for slot, a in enumerate(mats)
        for ray_idx, filt in enumerate(v.filts)
        for j, sub in filt.steps
        if not preserves(a, sub)
    )
    comm_bad = tuple(
        (i, j) for i in range(n) for j in range(i + 1, n) if not commutes(mats[i], mats[j])
    )
    return FieldVerdict(not filt_bad and not comm_bad, filt_bad, comm_bad)


def field_from_vector_field(v: TVB, coeffs: Sequence) -> ToricCoHiggsField:
    """The scalar field with entries a_j · Id; always valid."""
    n = v.fan.n
    coeffs = as_vec(coeffs)
    if len(coeffs) != n:
        raise ValueError(f"{len(coeffs)} coefficients for lattice rank {n}")
    mats = tuple(Mat.identity(v.r).scale(c) for c in coeffs)
    return ToricCoHiggsField(v, mats)


class ChartExpansion(Record):
    """Chart matrices of a field on one maximal cone.

    Entry k holds the character of the k-th chart coordinate (the monomial
    tag) and the matrix M_k = sum_j <u^k, e_j> A_j.  The tuple (A_j) is
    recovered from (M_k) by the inverse dual-basis matrix.
    """

    cone: Cone
    terms: tuple[tuple[tuple[int, ...], Mat], ...]


def _integer_charts(
    field: ToricCoHiggsField, sigma: Cone
) -> tuple[tuple[Character, ...], int, list[list[list[int]]]]:
    """(u^1..u^n, D, [D·M_1, ..., D·M_n]) for one maximal cone.

    D is the lcm of the denominators of the whole tuple, and D·M_k is the
    integer combination Σ_j u^k_j D·A_j; D and the D·A_j are the field's,
    computed once for every cone.
    """
    duals = dual_basis(field.bundle.fan, sigma)
    den, scaled = field._scaled
    # zip(*scaled) yields row i of every D·A_j, and zip(*rows) their (i, j) entries
    charts = [
        [[sum(map(mul, u, entries)) for entries in zip(*rows)] for rows in zip(*scaled)]
        for u in duals
    ]
    return duals, den, charts


def chart_expansion(field: ToricCoHiggsField, sigma: Cone) -> ChartExpansion:
    duals, den, charts = _integer_charts(field, sigma)
    r = field.bundle.r
    terms = (
        (u, Mat._trusted([[Fraction(x, den) for x in row] for row in m], r))
        for u, m in zip(duals, charts)
    )
    return ChartExpansion(sigma, tuple(terms))


class IntegrabilityVerdict(Record):
    """Chart commutation of a field, decided on one maximal cone."""

    valid: bool
    first_failure: tuple[int, int, int] | None = None  # (cone index, k, l)


def verify_integrability(field: ToricCoHiggsField) -> IntegrabilityVerdict:
    """Commute the chart matrices of the first maximal cone.

    That decides every chart.  On a smooth cone the dual basis u^1..u^n is a
    Z-basis of M, so the chart matrices M_k = Σ_j u^k_j A_j span the same
    space as A_1..A_n, and matrices commute pairwise iff their span is
    commutative.  So the charts of one cone commute iff the A_j do, iff the
    charts of every cone do, and a failure is always on cone 0.  A fan with
    no maximal cone has no chart to fail.  Independent of ``validate_field``:
    it must agree with that function's commutation sub-verdict on every input.
    """
    cones = field.bundle.fan.max_cones
    charts = _integer_charts(field, cones[0])[2] if cones else []
    for k in range(len(charts)):
        for l in range(k + 1, len(charts)):
            if not _integer_commute(charts[k], charts[l]):
                return IntegrabilityVerdict(False, (0, k, l))
    return IntegrabilityVerdict(True)


def canonical_pair(fan: Fan) -> tuple[TVB, tuple[Mat, ...]]:
    """Tangent-plus-trivial-line bundle with the nilpotent candidate tuple.

    The j-th matrix sends the j-th tangent coordinate to the line summand's
    generator and everything else to zero.  The tuple is returned without any
    validity claim; run ``validate_field`` and ``verify_integrability`` on it
    and record what they say.
    """
    bundle = direct_sum(tangent_bundle(fan), line_bundle(fan, 0))
    n = fan.n
    r = n + 1
    mats = tuple(Mat.elementary(r, r, n, j) for j in range(n))
    return bundle, mats


class ClassificationReport(Record):
    """Everything the classification computes for one bundle; the basis ``Mat``s are
    built on first use, and the center and the forms are written from integers."""

    rank: int
    n: int
    bundle_status: str
    bundle_certificate: str | None
    algebra: FilteredEndAlgebra
    dim_h: int
    commutative: bool
    center: Subspace  # in algebra coordinates, as endalg.center returns it
    parameters: int | None
    tuple_equations: TupleVarietyEqs | None
    chern: ChernData | None
    notes: tuple[str, ...]
    warnings: tuple[str, ...]

    @property
    def basis(self) -> tuple[Mat, ...]:
        return self.algebra.basis

    @property
    def generators(self) -> tuple[tuple[Mat, ...], ...] | None:
        """One basis matrix per slot, the other slots zero, for a commutative algebra."""
        zero = Mat.zero(self.rank, self.rank)
        return tuple(tuple(b if j == slot else zero for j in range(self.n))
                     for slot in range(self.n) for b in self.basis) if self.commutative else None


_GROUP_NOTE = (
    "counts describe the linear algebra of filtered endomorphisms; the "
    "filtered automorphisms form its unit group, an open invertibility "
    "condition that is reported, not imposed"
)


def classify(v: TVB) -> ClassificationReport:
    """Full classification of valid field tuples on one bundle.

    For a commutative endomorphism algebra the valid fields form a free
    module with n·dim generators (one basis matrix per slot); otherwise the
    report carries the exact bilinear equations of the commuting tuples.
    """
    verdict = is_vector_bundle(v)
    warnings = []
    if not verdict.compatible:
        warnings.append(
            f"filtrations are {verdict.status} on cone {verdict.cone_index} "
            f"({verdict.certificate}); classification proceeds on the raw "
            "filtration data"
        )
    alg = filtered_endos(v)
    commutative = is_commutative(alg)
    n = v.fan.n
    return ClassificationReport(
        rank=v.r,
        n=n,
        bundle_status=verdict.status,
        bundle_certificate=verdict.certificate,
        algebra=alg,
        dim_h=alg.dim,
        commutative=commutative,
        center=center(alg),
        parameters=n * alg.dim if commutative else None,
        tuple_equations=None if commutative else tuple_variety_equations(alg, n),
        chern=equivariant_chern_data(v, verdict) if verdict.compatible else None,
        notes=(_GROUP_NOTE,),
        warnings=tuple(warnings),
    )
