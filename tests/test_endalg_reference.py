"""The product table against a test-only copy of the original endalg path.

The algebra multiplies its subspace's integer rows only where their supports
meet and reads each product off the pivots; ``structure_constants``,
``is_commutative``, ``center`` and ``tuple_variety_equations`` all derive from
that table.  The reference below is the original path on the ``Fraction``
basis matrices: one ``solve_linear`` per coordinate vector, the center as the
kernel of direct commutators with its elements combined from the basis,
pairwise commutators for commutativity, and the tuple forms read from the
coordinates of each commutator [A_a, A_b] (``reference.ref_forms``); the
library's sparse forms are made dense before they are compared.  Its
products are dense sums over every pair (``reference.mat_mul``), independent
of the library's sparse product and support filter.
"""

import json
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
from toric_cohiggs import cli, endalg
from toric_cohiggs.endalg import FilteredEndAlgebra
from toric_cohiggs.errors import InternalError
from toric_cohiggs.linalg import kernel
from toric_cohiggs.serialize import bundle_to_obj, dumps_canonical

from conftest import random_bundle, standard_cone_fan
from reference import commutator, line_sum, mat_mul, ref_coords, ref_forms


def ref_tensor(alg):
    return tuple(tuple(ref_coords(alg, mat_mul(a, b)) for b in alg.basis) for a in alg.basis)


def ref_element(alg, coords):
    r = alg.bundle.r
    return Mat(
        [
            [sum((c * b.rows[i][j] for c, b in zip(coords, alg.basis)), Fraction(0))
             for j in range(r)]
            for i in range(r)
        ],
        ncols=r,
    )


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
    return [ref_element(alg, x) for x in coords.basis]


def dense_form(form, d):
    """A sparse form (per row, its nonzero (column, value) pairs) as a d x d Mat."""
    rows = [[Fraction(0)] * d for _ in range(d)]
    for a, row in enumerate(form):
        cols = [b for b, _ in row]
        assert cols == sorted(set(cols)), "columns must ascend without repeats"
        for b, value in row:
            assert value != 0, "a sparse form stores no zero"
            rows[a][b] = value
    return Mat(rows, ncols=d)


def assert_matches_reference(v, n):
    alg = filtered_endos(v)
    r = v.r
    assert alg.basis == tuple(Mat.from_vec(b, r, r) for b in alg.space.basis)
    assert structure_constants(alg) == ref_tensor(alg)
    assert is_commutative(alg) == ref_is_commutative(alg)
    assert center(alg) == ref_center(alg)
    forms = tuple_variety_equations(alg, n).forms
    assert all(len(f) == alg.dim for f in forms)
    assert tuple(dense_form(f, alg.dim) for f in forms) == ref_forms(alg)
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


def test_two_dimensional_center_of_a_noncommutative_algebra(tmp_path, capsys):
    """O + O + L + L on P^2: two gl_2 blocks, so the center is spanned by the
    two block identities; equal center equations must not lose one."""
    fan = fan_pn(2)
    o, twisted = line_bundle(fan, 0), line_bundle(fan, [1, -1, 0])
    v = direct_sum(direct_sum(direct_sum(o, o), twisted), twisted)
    alg = assert_matches_reference(v, 2)
    assert (alg.dim, is_commutative(alg), len(center(alg))) == (8, False, 2)
    bundle = tmp_path / "bundle.json"
    bundle.write_text(dumps_canonical(bundle_to_obj(v)))
    capsys.readouterr()
    assert cli.main(["classify", str(bundle), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["dim_h"], report["commutative"], report["center_dim"]) == (8, False, 2)
    blocks = (["1", "1", "0", "0"], ["0", "0", "1", "1"])  # the diagonals
    assert report["center"] == [
        [[x if i == j else "0" for j, x in enumerate(diag)] for i in range(4)] for diag in blocks
    ]


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
    # R = e11 + e12 + e21 has R R = (2, 1, 1, 1): its pivot coordinate 2 is
    # nonzero, yet R R != 2 R, so only a test of every entry rejects it
    outside = Subspace(4, [(1, 1, 1, 0)])
    for verb in (structure_constants, is_commutative, center):
        with pytest.raises(InternalError):
            verb(FilteredEndAlgebra(v, outside))
    # the integer row R = 2 e11 + e12 has pivot 2 and R R = 2 R, so the basis
    # element R / 2 is idempotent: its coordinate is 4 / (2 * 2)
    scaled = Subspace(4, [(2, 1, 0, 0)])
    assert structure_constants(FilteredEndAlgebra(v, scaled)) == (((1,),),)
