"""The product table against a test-only copy of the original endalg path.

The algebra multiplies its subspace's integer rows only where their supports
meet and reads each product off the pivots; ``structure_constants``,
``is_commutative``, ``center`` and ``tuple_variety_equations`` all derive from
that table.  The reference below is the original path on the ``Fraction``
basis matrices: one ``solve_linear`` per coordinate vector, the center as the
kernel of direct commutators with its elements combined from the basis,
pairwise commutators for commutativity, and the tuple forms read from the
coordinates of each commutator [A_a, A_b].  Its products are dense sums over
every pair, independent of the library's sparse product and support filter.
"""

import random
from fractions import Fraction

import pytest

from toric_cohiggs import (
    Mat,
    Subspace,
    center,
    classify,
    direct_sum,
    fan_pn,
    filtered_endos,
    is_commutative,
    line_bundle,
    structure_constants,
    tuple_variety_equations,
)
from toric_cohiggs import endalg
from toric_cohiggs.endalg import FilteredEndAlgebra
from toric_cohiggs.errors import InternalError
from toric_cohiggs.linalg import kernel, solve_linear

from conftest import random_bundle, standard_cone_fan


def ref_mul(a, b):
    cols = list(zip(*b.rows))
    return Mat([[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a.rows],
               ncols=b.ncols)


def ref_commutator(a, b):
    return ref_mul(a, b) - ref_mul(b, a)


def ref_coords(alg, target):
    cols = Mat([b.vectorize() for b in alg.basis], ncols=alg.bundle.r ** 2).transpose()
    coords = solve_linear(cols, target.vectorize())
    assert coords is not None, "element outside the algebra"
    return coords


def ref_tensor(alg):
    return tuple(tuple(ref_coords(alg, ref_mul(a, b)) for b in alg.basis) for a in alg.basis)


def ref_element(alg, coords):
    r = alg.bundle.r
    return Mat(
        [
            [sum((c * b.entry(i, j) for c, b in zip(coords, alg.basis)), Fraction(0))
             for j in range(r)]
            for i in range(r)
        ],
        ncols=r,
    )


def ref_is_commutative(alg):
    basis = alg.basis
    return all(
        ref_commutator(basis[i], basis[j]).is_zero()
        for i in range(len(basis))
        for j in range(i + 1, len(basis))
    )


def ref_center(alg):
    d, r = alg.dim, alg.bundle.r
    if d == 0:
        return []
    rows = []
    for a in alg.basis:
        comms = [ref_commutator(b, a).vectorize() for b in alg.basis]
        for pos in range(r * r):
            rows.append([comms[b][pos] for b in range(d)])
    coords = kernel(Mat(rows, ncols=d)) if rows else Subspace.full(d)
    return [ref_element(alg, x) for x in coords.basis]


def ref_forms(alg):
    d = alg.dim
    zero = (0,) * d
    comm = [[zero] * d for _ in range(d)]
    for a in range(d):
        for b in range(a + 1, d):
            coords = ref_coords(alg, ref_commutator(alg.basis[a], alg.basis[b]))
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
    r = v.r
    assert alg.basis == tuple(Mat.from_vec(b, r, r) for b in alg.space.basis)
    assert structure_constants(alg) == ref_tensor(alg)
    assert is_commutative(alg) == ref_is_commutative(alg)
    assert center(alg) == ref_center(alg)
    assert tuple_variety_equations(alg, n).forms == ref_forms(alg)
    return alg


def has_integer_pivot_over_1(alg):
    """Whether some basis element is its integer row divided by a pivot d_a > 1."""
    return any(row[p] > 1 for row, p in zip(alg.space.rows, alg.space.pivots))


def test_tensor_center_and_forms_match_reference_on_random_bundles():
    rng = random.Random(89)
    commutative, scaled = set(), 0
    for _ in range(40):
        n = rng.randint(1, 3)
        fan = standard_cone_fan(n) if rng.random() < 0.5 else fan_pn(n)
        alg = assert_matches_reference(random_bundle(rng, fan, rng.randint(1, 4)), 2)
        commutative.add(is_commutative(alg))
        scaled += has_integer_pivot_over_1(alg)
    assert commutative == {True, False}
    # the division by d_a d_b in the tensor is exercised
    assert scaled >= 10


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_tensor_center_and_forms_match_reference_on_line_sums(k):
    assert_matches_reference(line_sum(fan_pn(2), list(range(k))), 2)


# Repeated twists give full matrix blocks, so many products are nonzero.
@pytest.mark.parametrize("twists", [[0, 0, 0, 0], [0, 0, 1, 1, 2]])
def test_tensor_center_and_forms_match_reference_on_repeated_twists(twists):
    assert_matches_reference(line_sum(fan_pn(2), twists), 2)


def test_classify_never_builds_the_fraction_tensor_or_multiplies_matrices(monkeypatch):
    def refuse(*args):
        raise AssertionError("called on the classify path")

    monkeypatch.setattr(endalg, "structure_constants", refuse)
    monkeypatch.setattr(Mat, "__matmul__", refuse)
    report = classify(line_sum(fan_pn(2), list(range(6))))
    assert (report.dim_h, report.commutative, len(report.center_basis)) == (21, False, 1)


def test_basis_not_closed_under_multiplication_is_an_internal_error():
    v = line_sum(fan_pn(2), [0, 0])
    e12, e21 = Mat.elementary(2, 2, 0, 1), Mat.elementary(2, 2, 1, 0)
    span = Subspace(4, [e12.vectorize(), e21.vectorize()])  # e12 e21 = e11 is outside
    with pytest.raises(InternalError):
        structure_constants(FilteredEndAlgebra(v, span))
    with pytest.raises(InternalError):
        is_commutative(FilteredEndAlgebra(v, span))
    with pytest.raises(InternalError):
        center(FilteredEndAlgebra(v, span))
    # the integer row R = 2 e11 + e12 has pivot 2 and R R = 2 R, so the basis
    # element R / 2 is idempotent: its coordinate is 4 / (2 * 2)
    scaled = Subspace(4, [(2, 1, 0, 0)])
    assert structure_constants(FilteredEndAlgebra(v, scaled)) == (((1,),),)
