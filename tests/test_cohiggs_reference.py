"""Field validity on integer multiples against the Fraction-product path.

``commutes`` and ``preserves`` decide commutation and invariance on the
integer forms of the matrices, and ``verify_integrability`` commutes integer
chart matrices.  The ``reference_*`` functions below are the Fraction-product
versions those replaced, kept in the tests only as references:
``commutator(a, b).is_zero()`` and ``mul_vec`` + ``contains_vector`` (both
from ``reference``), and chart matrices summed from ``Mat.scale``.  The
predicates are compared on matrices with non-integer rationals, negative
entries, zero rows and columns and rank one, against zero, full, invariant
and nested subspaces.  The verdicts and chart expansions are compared on
seeded random bundles over P^2, P^1 x P^2, P^3 and F_2, with tuples that
carry denominators and that are valid, break invariance, break commutation,
or break both.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_cohiggs import (
    ChartExpansion,
    FieldVerdict,
    IntegrabilityVerdict,
    Mat,
    Subspace,
    ToricCoHiggsField,
    chart_expansion,
    commutes,
    fan_hirzebruch,
    fan_pn,
    fan_product,
    filtered_endos,
    is_commutative,
    preserves,
    validate_field,
    verify_integrability,
)
from toric_cohiggs.fans import dual_basis

from conftest import random_bundle
from reference import commutator, mul_vec, only_fractions, transpose

# --------------------------------------------------------------------------
# the Fraction-product references


def reference_commutes(a: Mat, b: Mat) -> bool:
    return commutator(a, b).is_zero()


def reference_preserves(a: Mat, s: Subspace) -> bool:
    return all(s.contains_vector(mul_vec(a, w)) for w in s.basis)


def reference_validate_field(v, mats) -> FieldVerdict:
    n = v.fan.n
    filt_bad = []
    for slot, a in enumerate(mats):
        for ray_idx, filt in enumerate(v.filts):
            for j, sub in filt.steps:
                if sub.dim in (0, v.r):
                    continue
                if any(not sub.contains_vector(mul_vec(a, w)) for w in sub.basis):
                    filt_bad.append((slot, ray_idx, j))
    comm_bad = []
    for i in range(n):
        for j in range(i + 1, n):
            if not commutator(mats[i], mats[j]).is_zero():
                comm_bad.append((i, j))
    return FieldVerdict(not filt_bad and not comm_bad, tuple(filt_bad), tuple(comm_bad))


def reference_chart_expansion(field, sigma) -> ChartExpansion:
    r = field.bundle.r
    terms = []
    for u in dual_basis(field.bundle.fan, sigma):
        m = Mat.zero(r, r)
        for coeff, a in zip(u, field.mats):
            if coeff:
                m = m + a.scale(coeff)
        terms.append((u, m))
    return ChartExpansion(sigma, tuple(terms))


def reference_verify_integrability(field) -> IntegrabilityVerdict:
    for idx, sigma in enumerate(field.bundle.fan.max_cones):
        mats = [m for _, m in reference_chart_expansion(field, sigma).terms]
        for k in range(len(mats)):
            for l in range(k + 1, len(mats)):
                if not commutator(mats[k], mats[l]).is_zero():
                    return IntegrabilityVerdict(False, (idx, k, l))
    return IntegrabilityVerdict(True)


# --------------------------------------------------------------------------
# the predicates

entries = st.one_of(
    st.just(Fraction(0)),
    st.integers(-6, 6).map(Fraction),
    st.fractions(min_value=-7, max_value=7, max_denominator=9),
)


@st.composite
def square_matrices(draw, n):
    kind = draw(st.sampled_from(["dense", "dense", "rank one", "zero lines"]))
    if kind == "rank one":
        col, row = (draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(2))
        return Mat([[c * x for x in row] for c in col], ncols=n)
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    if kind == "zero lines" and n:
        rows[draw(st.integers(0, n - 1))] = [Fraction(0)] * n
        j = draw(st.integers(0, n - 1))
        for r in rows:
            r[j] = Fraction(0)
    return Mat(rows, ncols=n)


def polynomial_in(a: Mat, coeffs) -> Mat:
    out, power = Mat.zero(a.nrows, a.ncols), Mat.identity(a.nrows)
    for c in coeffs:
        out = out + power.scale(c)
        power = power @ a
    return out


@st.composite
def commuting_candidates(draw):
    n = draw(st.integers(0, 5))
    a = draw(square_matrices(n))
    how = draw(st.sampled_from(["any", "any", "polynomial", "itself"]))
    if how == "polynomial":
        b = polynomial_in(a, draw(st.lists(entries, min_size=1, max_size=3)))
    elif how == "itself":
        b = a
    else:
        b = draw(square_matrices(n))
    return a, b


def krylov(a: Mat, v) -> Subspace:
    """span(v, a v, a^2 v, ...): the least a-invariant subspace holding v."""
    vectors = [tuple(v)]
    for _ in range(a.nrows):
        vectors.append(mul_vec(a, vectors[-1]))
    return Subspace(a.nrows, vectors)


@st.composite
def invariance_candidates(draw):
    n = draw(st.integers(1, 5))
    a = draw(square_matrices(n))
    kind = draw(st.sampled_from(["random", "random", "zero", "full", "image", "krylov", "nested"]))
    if kind == "zero":
        return a, Subspace.zero(n)
    if kind == "full":
        return a, Subspace.full(n)
    if kind == "image":
        return a, Subspace(n, transpose(a).rows)
    vectors = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(draw(st.integers(1, 3)))]
    if kind == "random":
        return a, Subspace(n, vectors)
    s = krylov(a, vectors[0])
    if kind == "nested" and s.dim > 1:
        # a subspace of an invariant one, usually not invariant itself
        combine = transpose(Mat(s.basis, ncols=n))
        return a, Subspace(n, [mul_vec(combine, w[: s.dim]) for w in vectors])
    return a, s


@settings(max_examples=150, deadline=None)
@given(commuting_candidates())
def test_commutes_matches_commutator(pair):
    a, b = pair
    assert commutes(a, b) == reference_commutes(a, b)
    assert commutes(b, a) == commutes(a, b)


@settings(max_examples=150, deadline=None)
@given(invariance_candidates())
def test_preserves_matches_fraction_products(pair):
    a, s = pair
    assert preserves(a, s) == reference_preserves(a, s)


def test_predicates_decide_both_ways():
    rng = random.Random(3)
    a = Mat([[Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(3)] for _ in range(3)])
    assert commutes(a, polynomial_in(a, [Fraction(1, 2), Fraction(-3, 7), 2]))
    assert not commutes(a, Mat.elementary(3, 3, 0, 1))
    assert preserves(a, krylov(a, (1, 0, 0)))
    assert not preserves(Mat.elementary(3, 3, 1, 0), Subspace(3, [(1, 0, 0)]))


def test_predicates_reject_shape_mismatch():
    with pytest.raises(ValueError):
        commutes(Mat.identity(2), Mat.identity(3))
    with pytest.raises(ValueError):
        commutes(Mat.zero(2, 3), Mat.zero(3, 2))
    with pytest.raises(ValueError):
        preserves(Mat.identity(2), Subspace.full(3))


# --------------------------------------------------------------------------
# verdicts and chart expansions on seeded bundles

FANS = {
    "P^2": fan_pn(2),
    "P^1 x P^2": fan_product(fan_pn(1), fan_pn(2)),
    "P^3": fan_pn(3),
    "F_2": fan_hirzebruch(2),
}


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2, 3, 4, 7]))


def random_combination(rng: random.Random, mats, r: int) -> Mat:
    out = Mat.zero(r, r)
    for m in mats:
        out = out + m.scale(random_rational(rng))
    return out


def random_tuple(rng: random.Random, v, kind: str) -> tuple[Mat, ...]:
    """A tuple with fractional entries that, by construction:

    - "valid": polynomials in one filtered endomorphism;
    - "noncommuting": independent filtered endomorphisms of a noncommutative
      algebra;
    - "noninvariant": polynomials in one unconstrained matrix;
    - "both": independent unconstrained matrices.
    """
    n, r = v.fan.n, v.r
    endos = filtered_endos(v).basis
    if kind in ("valid", "noninvariant"):
        if kind == "valid":
            base = random_combination(rng, endos, r)
        else:
            base = Mat([[random_rational(rng) for _ in range(r)] for _ in range(r)])
        return tuple(polynomial_in(base, [random_rational(rng) for _ in range(3)]) for _ in range(n))
    if kind == "noncommuting":
        return tuple(random_combination(rng, endos, r) for _ in range(n))
    return tuple(Mat([[random_rational(rng) for _ in range(r)] for _ in range(r)]) for _ in range(n))


@pytest.mark.parametrize("fan_name", sorted(FANS))
def test_verdicts_and_charts_match_reference_on_random_bundles(fan_name):
    fan = FANS[fan_name]
    rng = random.Random(sum(map(ord, fan_name)))
    outcomes = Counter()
    fractional = 0
    for trial in range(24):
        kind = ("valid", "noncommuting", "noninvariant", "both")[trial % 4]
        v = random_bundle(rng, fan, rng.randint(1, 3))
        while kind == "noncommuting" and is_commutative(filtered_endos(v)):
            v = random_bundle(rng, fan, rng.randint(2, 3))
        mats = random_tuple(rng, v, kind)
        field = ToricCoHiggsField(v, mats)
        verdict = validate_field(field)
        assert verdict == reference_validate_field(v, mats)
        integrability = verify_integrability(field)
        assert integrability == reference_verify_integrability(field)
        assert integrability.valid == verdict.commutation_ok
        for sigma in fan.max_cones:
            got, want = chart_expansion(field, sigma), reference_chart_expansion(field, sigma)
            assert got == want
            assert all(only_fractions(m.rows) for _, m in got.terms)
        outcomes[verdict.filtration_ok, verdict.commutation_ok] += 1
        fractional += any(x.denominator > 1 for m in mats for row in m.rows for x in row)
        if kind == "valid":
            assert verdict.valid
    assert set(outcomes) == {(True, True), (True, False), (False, True), (False, False)}
    assert fractional >= 12
