"""The structure tensor against a test-only copy of the original endalg path.

``structure_constants`` reads each product's coordinates off the basis
pivots, and ``is_commutative``, ``center`` and ``tuple_variety_equations``
derive from the tensor.  The reference below is the original path: one
``solve_linear`` per coordinate vector, the center as the kernel of direct
commutators, pairwise commutators for commutativity, and the tuple forms
read from the coordinates of each commutator [A_a, A_b].
"""

import random

import pytest

from toric_cohiggs import (
    Mat,
    Subspace,
    center,
    commutator,
    direct_sum,
    fan_pn,
    filtered_endos,
    is_commutative,
    line_bundle,
    structure_constants,
    tuple_variety_equations,
)
from toric_cohiggs.endalg import FilteredEndAlgebra
from toric_cohiggs.errors import InternalError
from toric_cohiggs.linalg import kernel, solve_linear

from conftest import random_bundle, standard_cone_fan


def ref_coords(alg, target):
    cols = Mat([b.vectorize() for b in alg.basis], ncols=alg.bundle.r ** 2).transpose()
    coords = solve_linear(cols, target.vectorize())
    assert coords is not None, "element outside the algebra"
    return coords


def ref_tensor(alg):
    return tuple(tuple(ref_coords(alg, a @ b) for b in alg.basis) for a in alg.basis)


def ref_is_commutative(alg):
    basis = alg.basis
    return all(
        commutator(basis[i], basis[j]).is_zero()
        for i in range(len(basis))
        for j in range(i + 1, len(basis))
    )


def ref_center(alg):
    d, r = alg.dim, alg.bundle.r
    if d == 0:
        return []
    rows = []
    for a in alg.basis:
        comms = [commutator(b, a).vectorize() for b in alg.basis]
        for pos in range(r * r):
            rows.append([comms[b][pos] for b in range(d)])
    coords = kernel(Mat(rows, ncols=d)) if rows else Subspace.full(d)
    return [alg.element(x) for x in coords.basis]


def ref_forms(alg):
    d = alg.dim
    zero = (0,) * d
    comm = [[zero] * d for _ in range(d)]
    for a in range(d):
        for b in range(a + 1, d):
            coords = ref_coords(alg, commutator(alg.basis[a], alg.basis[b]))
            comm[a][b], comm[b][a] = coords, tuple(-x for x in coords)
    forms = [
        Mat([[comm[a][b][k] for b in range(d)] for a in range(d)], ncols=d)
        for k in range(d)
    ]
    return tuple(f for f in forms if not f.is_zero())


def line_sum(fan, twists):
    v = line_bundle(fan, twists[0])
    for t in twists[1:]:
        v = direct_sum(v, line_bundle(fan, t))
    return v


def assert_matches_reference(v, n):
    alg = filtered_endos(v)
    assert structure_constants(alg).c == ref_tensor(alg)
    assert is_commutative(alg) == ref_is_commutative(alg)
    assert center(alg) == ref_center(alg)
    assert tuple_variety_equations(alg, n).forms == ref_forms(alg)
    return is_commutative(alg)


def test_tensor_center_and_forms_match_reference_on_random_bundles():
    rng = random.Random(89)
    seen = set()
    for _ in range(40):
        n = rng.randint(1, 3)
        fan = standard_cone_fan(n) if rng.random() < 0.5 else fan_pn(n)
        seen.add(assert_matches_reference(random_bundle(rng, fan, rng.randint(1, 4)), 2))
    assert seen == {True, False}


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_tensor_center_and_forms_match_reference_on_line_sums(k):
    assert_matches_reference(line_sum(fan_pn(2), list(range(k))), 2)


def test_basis_not_closed_under_multiplication_is_an_internal_error():
    v = line_sum(fan_pn(2), [0, 0])
    e12, e21 = Mat.elementary(2, 2, 0, 1), Mat.elementary(2, 2, 1, 0)
    with pytest.raises(InternalError):
        structure_constants(FilteredEndAlgebra(v, (e12, e21)))
    with pytest.raises(InternalError):
        is_commutative(FilteredEndAlgebra(v, (e12, e21)))
