"""Field validation, chart expansions, the integrability oracle, classification."""

import math
import random
from fractions import Fraction as Q

import pytest

from toric_cohiggs import (
    Filtration,
    Mat,
    Subspace,
    TVB,
    ToricCoHiggsField,
    canonical_pair,
    chart_expansion,
    classify,
    fan_hirzebruch,
    fan_pn,
    fan_product,
    field_from_vector_field,
    filtered_endos,
    line_bundle,
    tangent_bundle,
    validate_field,
    verify_integrability,
)
from toric_cohiggs.fans import dual_basis
from toric_cohiggs.linalg import solve_linear

from conftest import random_bundle, random_matrix, standard_cone_fan
from reference import (
    commutator,
    is_zero_mat,
    mat_mul,
    mat_neg,
    ref_forms,
    reference_verify_integrability,
    rendered_forms,
    transpose,
)


# ---------------------------------------------------------------------------
# validate_field

def test_diagonal_tuples_are_valid_on_p1xp1():
    v = tangent_bundle(fan_product(fan_pn(1), fan_pn(1)))
    rng = random.Random(89)
    for _ in range(20):
        a, b, c, d = (Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4))
        field = ToricCoHiggsField(v, [Mat([[a, 0], [0, b]]), Mat([[c, 0], [0, d]])])
        verdict = validate_field(field)
        assert verdict.valid


def test_identity_with_shear_is_invalid_on_p2():
    v = tangent_bundle(fan_pn(2))
    verdict = validate_field(ToricCoHiggsField(v, [Mat.identity(2), Mat.elementary(2, 2, 0, 1)]))
    assert not verdict.valid
    # the shear does not preserve the line of the second ray
    assert (1, 1, 0) in verdict.filtration_violations
    assert verdict.commutation_ok


def test_zero_tuple_is_valid_everywhere(bundle_zoo):
    for v in bundle_zoo.values():
        mats = [Mat.zero(v.r, v.r) for _ in range(v.fan.n)]
        assert validate_field(ToricCoHiggsField(v, mats)).valid


def test_validate_field_rejects_bad_shapes():
    # the field record is the one count and shape check: a bad field is never built
    v = tangent_bundle(fan_pn(2))
    with pytest.raises(ValueError, match="^1 matrices for lattice rank 2$"):
        ToricCoHiggsField(v, [Mat.identity(2)])
    with pytest.raises(ValueError, match="^field matrices must be rank x rank$"):
        ToricCoHiggsField(v, [Mat.identity(3), Mat.identity(3)])
    with pytest.raises(ValueError, match="^field matrices must be rank x rank$"):
        ToricCoHiggsField(v, [Mat([[1, 0]]), Mat([[0, 1]])])


# ---------------------------------------------------------------------------
# scalar fields

def test_zero_vector_field_is_valid():
    v = tangent_bundle(fan_pn(2))
    field = field_from_vector_field(v, [0, 0])
    assert validate_field(field).valid


def test_p3_scalar_field_valid():
    v = tangent_bundle(fan_pn(3))
    field = field_from_vector_field(v, [1, 2, 3])
    assert validate_field(field).valid
    assert field.mats[2] == Mat.identity(3).scale(3)


def test_scalar_fields_valid_on_random_bundles():
    rng = random.Random(97)
    for _ in range(50):
        n = rng.randint(1, 3)
        v = random_bundle(rng, standard_cone_fan(n), rng.randint(1, 3))
        coeffs = [Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        field = field_from_vector_field(v, coeffs)
        assert validate_field(field).valid


def test_weighted_sections_have_no_valid_constant_tuple():
    """Sections that scale with a nontrivial torus weight fall outside this
    data model: a field here is a constant matrix tuple in the invariant
    frame, and on projective-space tangent bundles any tuple with a
    non-scalar entry (the constant shadow of a weighted section) is rejected
    by the filtration check."""
    for n in (2, 3):
        v = tangent_bundle(fan_pn(n))
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                mats = [Mat.zero(n, n) for _ in range(n)]
                mats[0] = Mat.elementary(n, n, i, j)
                verdict = validate_field(ToricCoHiggsField(v, mats))
                assert not verdict.valid
                assert verdict.filtration_violations


def test_pn_valid_tuples_are_exactly_scalars():
    # solving the filtration constraints leaves only multiples of the identity,
    # so every valid tuple on the tangent bundle has scalar entries
    for n in (2, 3):
        v = tangent_bundle(fan_pn(n))
        alg = filtered_endos(v)
        assert alg.basis == (Mat.identity(n),)
        rng = random.Random(101)
        for _ in range(20):
            mats = [random_matrix(rng, n) for _ in range(n)]
            verdict = validate_field(ToricCoHiggsField(v, mats))
            scalars = all(
                m == Mat.identity(n).scale(m.rows[0][0]) for m in mats
            )
            assert verdict.valid == (
                scalars
                and all(
                    is_zero_mat(commutator(a, b)) for a in mats for b in mats
                )
            )


# ---------------------------------------------------------------------------
# chart expansions

def test_chart_on_standard_cone_returns_the_tuple_itself():
    fan = standard_cone_fan(3)
    v = line_bundle(fan, 0)
    mats = tuple(Mat([[Q(j + 1)]]) for j in range(3))
    field = ToricCoHiggsField(v, mats)
    exp = chart_expansion(field, fan.max_cones[0])
    assert tuple(m for _, m in exp.terms) == mats
    assert tuple(u for u, _ in exp.terms) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_chart_rejects_non_maximal_cone():
    from toric_cohiggs import Cone

    v = tangent_bundle(fan_pn(2))
    field = field_from_vector_field(v, [1, 2])
    with pytest.raises(ValueError):
        chart_expansion(field, Cone((0,)))


def test_chart_on_p2_nonstandard_cone_mixes_entries_integrally():
    fan = fan_pn(2)
    v = tangent_bundle(fan)
    a1, a2 = Mat([[1, 0], [0, 2]]), Mat([[0, 1], [1, 0]])
    field = ToricCoHiggsField(v, (a1, a2))
    sigma = next(c for c in fan.max_cones if c.ray_indices == (1, 2))
    exp = chart_expansion(field, sigma)
    # dual basis is (-1, 1), (-1, 0)
    assert exp.terms[0][1] == mat_neg(a1) + a2
    assert exp.terms[1][1] == mat_neg(a1)


def test_chart_matrices_recover_the_tuple():
    rng = random.Random(103)
    for fan in (fan_pn(2), fan_pn(3), fan_hirzebruch(1)):
        r = 2
        v = TVB(
            fan,
            r,
            tuple(
                Filtration(r, [(0, Subspace.zero(r))]) for _ in fan.rays
            ),
        )
        mats = tuple(random_matrix(rng, r) for _ in range(fan.n))
        field = ToricCoHiggsField(v, mats)
        for sigma in fan.max_cones:
            exp = chart_expansion(field, sigma)
            duals = dual_basis(fan, sigma)
            # solve the dual-basis change of frame back to the A_j entrywise
            u_mat = Mat(duals)
            for i in range(r):
                for j in range(r):
                    target = [m.rows[i][j] for _, m in exp.terms]
                    coords = solve_linear(u_mat, target)
                    assert coords is not None
                    assert tuple(coords) == tuple(m.rows[i][j] for m in mats)


def test_chart_frames_of_two_cones_differ_by_integer_matrix():
    fan = fan_pn(3)
    v = tangent_bundle(fan)
    rng = random.Random(107)
    coeffs = [Q(rng.randint(-3, 3)) for _ in range(3)]
    field = field_from_vector_field(v, coeffs)
    sig, tau = fan.max_cones[0], fan.max_cones[-1]
    u_sig = Mat(dual_basis(fan, sig))
    u_tau = Mat(dual_basis(fan, tau))
    # C = U_tau * U_sig^{-1} is integral and carries one chart to the other
    n = fan.n
    c_rows = []
    for k in range(n):
        sol = solve_linear(transpose(u_sig), u_tau.rows[k])
        assert sol is not None
        assert all(x.denominator == 1 for x in sol)
        c_rows.append(sol)
    m_sig = [m for _, m in chart_expansion(field, sig).terms]
    m_tau = [m for _, m in chart_expansion(field, tau).terms]
    for k in range(n):
        combo = Mat.zero(v.r, v.r)
        for l in range(n):
            combo = combo + m_sig[l].scale(c_rows[k][l])
        assert combo == m_tau[k]


def test_chart_coefficient_closed_form_numerically():
    # the single permitted floating-point use: check that the invariant frame
    # expands in chart coordinates with coefficient <u^k, e_j> * z_k
    fan = fan_pn(2)
    rng = random.Random(109)
    for sigma in fan.max_cones:
        duals = dual_basis(fan, sigma)
        t = [math.exp(rng.uniform(-0.4, 0.4)) for _ in range(fan.n)]

        def z(k, tt):
            return math.prod(tt[l] ** duals[k][l] for l in range(fan.n))

        h = 1e-6
        for j in range(fan.n):
            for m in range(fan.n):
                up = list(t)
                up[j] *= math.exp(h)
                down = list(t)
                down[j] *= math.exp(-h)
                numeric = (z(m, up) - z(m, down)) / (2 * h)
                closed_form = duals[m][j] * z(m, t)
                assert numeric == pytest.approx(closed_form, rel=1e-5, abs=1e-9)


# ---------------------------------------------------------------------------
# integrability

def test_commuting_tuple_passes_every_chart(bundle_zoo):
    for v in bundle_zoo.values():
        field = field_from_vector_field(v, list(range(1, v.fan.n + 1)))
        assert verify_integrability(field).valid
        assert verify_integrability(field) == reference_verify_integrability(field)


def test_shear_pair_fails_on_standard_chart():
    fan = standard_cone_fan(2)
    v = TVB(
        fan,
        2,
        tuple(Filtration(2, [(0, Subspace.zero(2))]) for _ in fan.rays),
    )
    field = ToricCoHiggsField(
        v, (Mat.elementary(2, 2, 0, 1), Mat.elementary(2, 2, 1, 0))
    )
    verdict = verify_integrability(field)
    assert not verdict.valid
    assert verdict.first_failure == (0, 0, 1)
    assert verdict == reference_verify_integrability(field)


def test_integrability_agrees_with_direct_commutation():
    rng = random.Random(113)
    for _ in range(150):
        n = rng.randint(1, 3)
        fan = standard_cone_fan(n) if rng.random() < 0.5 else fan_pn(n)
        r = rng.randint(1, 3)
        v = random_bundle(rng, fan, r)
        mats = [random_matrix(rng, r) for _ in range(n)]
        field = ToricCoHiggsField(v, tuple(mats))
        direct = validate_field(field)
        assert verify_integrability(field).valid == direct.commutation_ok
        assert verify_integrability(field) == reference_verify_integrability(field)


@pytest.mark.parametrize("fan", [fan_pn(3), fan_product(fan_pn(1), fan_pn(2)), fan_hirzebruch(2)],
                         ids=["P^3", "P^1 x P^2", "F_2"])
def test_only_failing_commutator_in_the_last_slot_fails_on_cone_0(fan):
    # the earlier slots commute with everything but the last one: a scalar, then
    # diag(1, 0); the last slot is the shear E_01, and [diag(1, 0), E_01] = E_01
    n = fan.n
    v = TVB(fan, 2, tuple(Filtration(2, [(0, Subspace.zero(2))]) for _ in fan.rays))
    mats = [Mat.identity(2).scale(3)] * (n - 2)
    mats += [Mat([[1, 0], [0, 0]]), Mat.elementary(2, 2, 0, 1)]
    field = ToricCoHiggsField(v, tuple(mats))
    assert validate_field(field).commutator_violations == ((n - 2, n - 1),)
    verdict = verify_integrability(field)
    assert not verdict.valid and verdict.first_failure[0] == 0
    assert verdict == reference_verify_integrability(field)


# ---------------------------------------------------------------------------
# the canonical pair

def test_canonical_tuple_products_vanish(fan_zoo):
    for key in ("pn1", "pn2", "pn3", "p1xp1"):
        _, mats = canonical_pair(fan_zoo[key])
        for a in mats:
            for b in mats:
                assert is_zero_mat(mat_mul(a, b))
            assert is_zero_mat(mat_mul(a, a))


def test_canonical_bundle_shape():
    fan = fan_pn(2)
    bundle, mats = canonical_pair(fan)
    assert bundle.r == 3
    assert len(mats) == 2
    assert mats[0] == Mat.elementary(3, 3, 2, 0)
    assert mats[1] == Mat.elementary(3, 3, 2, 1)


# ---------------------------------------------------------------------------
# classification

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_classify_tangent_pn(n):
    rep = classify(tangent_bundle(fan_pn(n)))
    assert rep.bundle_status == "compatible"
    assert rep.dim_h == 1
    assert rep.commutative
    assert rep.basis == (Mat.identity(n),)
    assert rep.parameters == n
    assert rep.generators is not None and len(rep.generators) == n
    for slot, gen in enumerate(rep.generators):
        expected = field_from_vector_field(
            tangent_bundle(fan_pn(n)), [int(j == slot) for j in range(n)]
        )
        assert gen == expected.mats
    assert rep.tuple_equations is None


def test_classify_tangent_p1xp1():
    rep = classify(tangent_bundle(fan_product(fan_pn(1), fan_pn(1))))
    assert rep.dim_h == 2
    assert rep.commutative
    assert rep.parameters == 4
    assert len(rep.generators) == 4


def test_classify_rank_one(fan_zoo):
    for fan in fan_zoo.values():
        rep = classify(line_bundle(fan, 1))
        assert rep.dim_h == 1
        assert rep.parameters == fan.n


def test_classify_noncommutative_emits_equations():
    fan = standard_cone_fan(2)
    v = TVB(
        fan,
        2,
        tuple(Filtration(2, [(t, Subspace.zero(2))]) for t in (0, 1)),
    )
    rep = classify(v)
    assert not rep.commutative
    assert rep.parameters is None
    assert rep.generators is None
    assert rep.tuple_equations is not None
    assert rendered_forms(rep.tuple_equations) == ref_forms(rep.algebra) != ()


def test_classify_incompatible_bundle_warns_and_proceeds():
    from conftest import three_lines_bundle

    rep = classify(three_lines_bundle())
    assert rep.bundle_status == "incompatible"
    assert rep.warnings
    assert rep.chern is None
    assert rep.dim_h >= 1


def test_classify_is_deterministic(bundle_zoo):
    from toric_cohiggs.serialize import classification_to_obj, dumps_canonical

    v = bundle_zoo["sum_p1xp2"]
    first = dumps_canonical(classification_to_obj(classify(v)))
    second = dumps_canonical(classification_to_obj(classify(v)))
    assert first == second
