"""The filtered endomorphism algebra: bases, center, products, tuple equations."""

import random
from fractions import Fraction as Q

import pytest

from toric_cohiggs import (
    Filtration,
    Mat,
    Subspace,
    TVB,
    center,
    fan_pn,
    fan_product,
    filtered_endos,
    is_commutative,
    line_bundle,
    structure_constants,
    tangent_bundle,
    tuple_variety_equations,
)
from toric_cohiggs.linalg import solve_linear

from conftest import (
    center_elements,
    permute_rays,
    random_bundle,
    random_invertible,
    standard_cone_fan,
    transform_bundle,
)
from reference import (
    commutator,
    form_values,
    in_span,
    is_zero_mat,
    mul_vec,
    ref_coords,
    ref_element,
    ref_forms,
    rendered_forms,
    transpose,
    vectorize,
)




@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tangent_pn_algebra_is_scalars(n):
    alg = filtered_endos(tangent_bundle(fan_pn(n)))
    assert alg.dim == 1
    assert alg.basis == (Mat.identity(n),)


def test_tangent_p1xp1_algebra_is_diagonal():
    v = tangent_bundle(fan_product(fan_pn(1), fan_pn(1)))
    alg = filtered_endos(v)
    assert alg.dim == 2
    assert alg.basis == (Mat([[1, 0], [0, 0]]), Mat([[0, 0], [0, 1]]))
    assert is_commutative(alg)


def test_full_and_zero_filtration_values_constrain_nothing():
    # rank 3 bundle whose filtrations only take the values full and zero
    fan = standard_cone_fan(2)
    filts = tuple(
        Filtration(3, [(t, Subspace.zero(3))]) for t in (0, 2)
    )
    v = TVB(fan, 3, filts)
    alg = filtered_endos(v)
    assert alg.dim == 9
    assert not is_commutative(alg)


def test_flag_filtration_gives_upper_triangular():
    fan = standard_cone_fan(1)
    line = Subspace(2, [(1, 0)])
    filts = (Filtration(2, [(0, line), (1, Subspace.zero(2))]),)
    alg = filtered_endos(TVB(fan, 2, filts))
    assert alg.dim == 3
    for a in alg.basis:
        assert a.rows[1][0] == 0
    assert center_elements(alg) == [Mat.identity(2)]


def test_identity_lies_in_span_on_random_bundles():
    rng = random.Random(61)
    for _ in range(40):
        n = rng.randint(1, 3)
        v = random_bundle(rng, standard_cone_fan(n), rng.randint(1, 3))
        alg = filtered_endos(v)
        ref_coords(alg, Mat.identity(v.r))  # fails unless the identity is in the span


def test_every_basis_element_preserves_every_step():
    rng = random.Random(67)
    for _ in range(30):
        n = rng.randint(1, 3)
        v = random_bundle(rng, standard_cone_fan(n), rng.randint(1, 3))
        for a in filtered_endos(v).basis:
            for filt in v.filts:
                for _, sub in filt.steps:
                    for w in sub.basis:
                        assert in_span(sub, mul_vec(a, w))


def test_center_of_commutative_algebra_is_everything():
    alg = filtered_endos(tangent_bundle(fan_product(fan_pn(1), fan_pn(1))))
    assert center(alg) == Subspace.full(alg.dim)
    assert center_elements(alg) == list(alg.basis)


def test_center_of_full_end_is_scalars():
    fan = standard_cone_fan(1)
    filts = (Filtration(2, [(0, Subspace.zero(2))]),)
    alg = filtered_endos(TVB(fan, 2, filts))
    assert alg.dim == 4
    assert center_elements(alg) == [Mat.identity(2)]


def test_center_contains_scalars_on_random_bundles():
    rng = random.Random(71)
    for _ in range(25):
        n = rng.randint(1, 3)
        v = random_bundle(rng, standard_cone_fan(n), rng.randint(1, 3))
        cen = center_elements(filtered_endos(v))
        coords = transpose(Mat([vectorize(z) for z in cen], ncols=v.r ** 2))
        assert solve_linear(coords, vectorize(Mat.identity(v.r))) is not None


def test_structure_constants_identity_algebra():
    alg = filtered_endos(tangent_bundle(fan_pn(2)))
    assert structure_constants(alg) == (((Q(1),),),)
    assert alg.products == ((((0, 1),),),)  # one entry, one (k, value) pair


def test_structure_constants_diagonal_algebra():
    alg = filtered_endos(tangent_bundle(fan_product(fan_pn(1), fan_pn(1))))
    c = structure_constants(alg)
    # e11*e11 = e11, e11*e22 = 0
    assert c[0][0] == (Q(1), Q(0))
    assert c[0][1] == (Q(0), Q(0))
    assert c[1][1] == (Q(0), Q(1))
    assert all(type(x) is Q for pair in c for coords in pair for x in coords)


def test_structure_constants_reproduce_products():
    rng = random.Random(73)
    checked = 0
    while checked < 100:
        n = rng.randint(1, 3)
        v = random_bundle(rng, standard_cone_fan(n), rng.randint(1, 3))
        alg = filtered_endos(v)
        if alg.dim == 0:
            continue
        c = structure_constants(alg)
        for _ in range(4):
            a = rng.randrange(alg.dim)
            b = rng.randrange(alg.dim)
            rebuilt = ref_element(alg, c[a][b])
            assert rebuilt == alg.basis[a] @ alg.basis[b]
            checked += 1


def test_tuple_equations_empty_for_commutative_and_n1():
    alg = filtered_endos(tangent_bundle(fan_product(fan_pn(1), fan_pn(1))))
    eqs = tuple_variety_equations(alg, 2)
    assert rendered_forms(eqs) == ref_forms(alg) == ()
    assert eqs.pairs == ((1, 2),)
    full = filtered_endos(
        TVB(
            standard_cone_fan(1),
            2,
            (Filtration(2, [(0, Subspace.zero(2))]),),
        )
    )
    assert rendered_forms(tuple_variety_equations(full, 1)) == ()
    assert rendered_forms(tuple_variety_equations(full, 2)) == ref_forms(full) != ()


def test_tuple_equations_of_length_zero_and_negative_length():
    # the point fan has n = 0: no slot pairs, so no forms, even for End(Q^2)
    full = filtered_endos(
        TVB(standard_cone_fan(1), 2, (Filtration(2, [(0, Subspace.zero(2))]),))
    )
    assert not is_commutative(full)
    eqs = tuple_variety_equations(full, 0)
    assert (eqs.n, eqs.dim, eqs.pairs, rendered_forms(eqs)) == (0, 4, (), ())
    with pytest.raises(ValueError):
        tuple_variety_equations(full, -1)


def test_tuple_equations_match_direct_commutators_on_full_end():
    fan = standard_cone_fan(2)
    filts = tuple(
        Filtration(2, [(t, Subspace.zero(2))]) for t in (0, 1)
    )
    alg = filtered_endos(TVB(fan, 2, filts))
    assert alg.dim == 4
    forms = rendered_forms(tuple_variety_equations(alg, 2))
    assert forms
    rng = random.Random(79)
    for _ in range(500):
        x = [Q(rng.randint(-3, 3)) for _ in range(4)]
        y = [Q(rng.randint(-3, 3)) for _ in range(4)]
        direct = commutator(ref_element(alg, x), ref_element(alg, y))
        values = form_values(forms, x, y)
        assert form_values(forms, y, x) == tuple(-val for val in values)
        assert all(val == 0 for val in values) == is_zero_mat(direct)


def test_dimension_invariant_under_ray_permutation_and_conjugation():
    rng = random.Random(83)
    for _ in range(30):
        n = rng.randint(1, 3)
        fan = standard_cone_fan(n) if rng.random() < 0.5 else fan_pn(n)
        r = rng.randint(1, 3)
        v = random_bundle(rng, fan, r)
        d = filtered_endos(v).dim
        perm = list(range(len(fan.rays)))
        rng.shuffle(perm)
        assert filtered_endos(permute_rays(v, perm)).dim == d
        g = random_invertible(rng, r)
        assert filtered_endos(transform_bundle(v, g)).dim == d


def test_line_bundle_algebra_is_one_dimensional(fan_zoo):
    for fan in fan_zoo.values():
        alg = filtered_endos(line_bundle(fan, 1))
        assert alg.dim == 1
        assert is_commutative(alg)
