"""The product table against a test-only copy of the original endalg path.

The algebra multiplies its subspace's integer rows only where their supports
meet and reads each product off the pivots; ``structure_constants``,
``is_commutative``, ``center`` and ``tuple_variety_equations`` all derive from
that table.  The reference below is the original path on the ``Fraction``
basis matrices: one ``solve_linear`` per coordinate vector, the center as the
kernel of direct commutators with its elements combined from the basis,
pairwise commutators for commutativity, and the tuple forms read from the
coordinates of each commutator [A_a, A_b] (``reference.ref_forms``).  The
library's center and forms are compared as a report writes them, parsed
back to ``Fraction``s or as text, and its sparse product table is made
dense.  The reference products are dense sums over every pair
(``reference.mat_mul``), independent of the library's sparse product and
support filter.
"""

import json
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_cohiggs import (
    Filtration,
    Mat,
    Subspace,
    TVB,
    center,
    classify,
    direct_sum,
    fan_pn,
    fan_product,
    filtered_endos,
    is_commutative,
    line_bundle,
    structure_constants,
    tangent_bundle,
    tuple_variety_equations,
)
from toric_cohiggs import cli, endalg
from toric_cohiggs.endalg import FilteredEndAlgebra
from toric_cohiggs.errors import InternalError
from toric_cohiggs.linalg import _kernel_of_rows
from toric_cohiggs.serialize import (
    bundle_to_obj,
    classification_to_obj,
    dumps_canonical,
    mat_to_obj,
)

from conftest import center_elements, random_bundle, select_fans, standard_cone_fan
from reference import (
    commutator,
    is_zero_mat,
    line_sum,
    mat_from_vec,
    mat_mul,
    ref_center,
    ref_coords,
    ref_forms,
    rendered_forms,
    vectorize,
)


def ref_tensor(alg):
    return tuple(tuple(ref_coords(alg, mat_mul(a, b)) for b in alg.basis) for a in alg.basis)


def ref_is_commutative(alg):
    basis = alg.basis
    return all(
        is_zero_mat(commutator(basis[i], basis[j]))
        for i in range(len(basis))
        for j in range(i + 1, len(basis))
    )


def dense_products(alg):
    """The sparse product table (per entry, its nonzero (k, value) pairs, or
    None) as the tensor c[a][b][k] = P_ab[k] / (d_a d_b)."""
    dens = [row[p] for row, p in zip(alg.space.rows, alg.space.pivots)]
    tensor = []
    for line, da in zip(alg.products, dens):
        out = []
        for entry, db in zip(line, dens):
            assert entry is None or entry, "a zero product is None"
            ks = [k for k, _ in entry or ()]
            assert ks == sorted(set(ks)), "coordinates must ascend without repeats"
            assert all(x != 0 for _, x in entry or ()), "the table stores no zero"
            coords = dict(entry or ())
            out.append(tuple(Fraction(coords.get(k, 0), da * db) for k in range(alg.dim)))
        tensor.append(tuple(out))
    return tuple(tensor)


def assert_matches_reference(v, n):
    alg = filtered_endos(v)
    r = v.r
    assert alg.basis == tuple(mat_from_vec(b, r, r) for b in alg.space.basis)
    assert dense_products(alg) == ref_tensor(alg)
    assert structure_constants(alg) == ref_tensor(alg)
    assert is_commutative(alg) == ref_is_commutative(alg)
    center_ref = ref_center(alg)
    assert center_elements(alg) == center_ref
    assert classification_to_obj(classify(v))["center"] == [mat_to_obj(z) for z in center_ref]
    assert rendered_forms(tuple_variety_equations(alg, n)) == ref_forms(alg)
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
    assert (alg.dim, is_commutative(alg), center(alg).dim) == (8, False, 2)
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
    assert (report.dim_h, report.commutative, report.center.dim) == (21, False, 1)


def test_basis_not_closed_under_multiplication_is_an_internal_error():
    v = line_sum(fan_pn(2), [0, 0])
    e12, e21 = Mat.elementary(2, 2, 0, 1), Mat.elementary(2, 2, 1, 0)
    span = Subspace(4, [vectorize(e12), vectorize(e21)])  # e12 e21 = e11 is outside
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


# ---------------------------------------------------------------------------
# the center solved on its unpinned coordinates

def full_center_rows(alg):
    """The center's whole system as dense rows, one per distinct primitive row:
    row (k, a) is (P_ab[k] - P_ba[k])·L/d_b over b, as before any coordinate
    was pinned."""
    d, scale = alg.dim, alg._scales[2]
    eqs = {}
    for a, b, k, diff in alg.differences:
        eqs.setdefault((k, a), {})[b] = diff * scale[b]
        eqs.setdefault((k, b), {})[a] = -diff * scale[a]
    rows = {}
    for eq in eqs.values():
        g = gcd(*eq.values()) if eq[min(eq)] > 0 else -gcd(*eq.values())
        rows[tuple(eq.get(b, 0) // g for b in range(d))] = None
    return list(rows)


def pinned_in_a_longer_row(alg) -> bool:
    """Whether a coordinate pinned by a one-entry row also meets another row."""
    rows = full_center_rows(alg)
    support = [{b for b, x in enumerate(row) if x} for row in rows]
    pinned = set().union(*(s for s in support if len(s) == 1))
    return any(len(s) > 1 and s & pinned for s in support)


def assert_pinned_center_is_the_dense_kernel(alg):
    rows = full_center_rows(alg)
    dense = _kernel_of_rows(rows, alg.dim) if rows else Subspace.full(alg.dim)
    coords = center(alg)
    assert coords.ambient_dim == alg.dim
    assert coords.rows == dense.rows  # row for row
    assert coords.pivots == dense.pivots
    assert all(type(x) is int for row in coords.rows for x in row)


CENTER_FANS = tuple(select_fans(["P^1", "standard 1-cone", "P^2", "standard 2-cone",
                                 "standard 3-cone"]).values())


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(CENTER_FANS), st.integers(1, 4))
def test_pinned_center_is_the_dense_kernel_of_the_whole_system(rng, fan, r):
    assert_pinned_center_is_the_dense_kernel(filtered_endos(random_bundle(rng, fan, r)))


@pytest.mark.parametrize("twists", [[0, 1], [0, 1, 2, 3, 4, 5], [0, 0, 0, 0], [0, 0, 1, 1, 2]])
def test_pinned_center_is_the_dense_kernel_on_line_sums(twists):
    assert_pinned_center_is_the_dense_kernel(filtered_endos(line_sum(fan_pn(2), twists)))


def test_pinned_center_with_a_pinned_coordinate_in_a_longer_row():
    """A full flag of Q^3 on one ray: its algebra is a Borel subalgebra in a
    basis with pivot entries 4, and four of its six coordinates are pinned by
    one-entry rows that also appear in rows with more entries."""
    plane = Subspace(3, [(2, 0, -1), (0, 2, 3)])
    line = Subspace(3, [(1, -1, -2)])
    flag = Filtration(3, [(-2, plane), (-1, line), (1, Subspace.zero(3))])
    alg = filtered_endos(TVB(standard_cone_fan(1), 3, (flag,)))
    assert alg.dim == 6 and max(alg._scales[0]) == 4
    assert pinned_in_a_longer_row(alg)
    assert_pinned_center_is_the_dense_kernel(alg)
    assert center_elements(alg) == ref_center(alg) == [Mat.identity(3)]


def test_report_accessors_build_the_mats_on_first_use():
    """The report keeps the algebra and the center's coordinates; its ``Mat``
    accessors, built when asked, equal the reference."""
    v = line_sum(fan_pn(2), [0, 0, 1])
    report = classify(v)
    alg = report.algebra
    assert "basis" not in vars(alg) and report.center == center(alg)
    assert report.basis == tuple(mat_from_vec(b, 3, 3) for b in alg.space.basis)
    assert report.generators is None
    assert rendered_forms(report.tuple_equations) == ref_forms(alg) != ()
    again = classify(v)
    assert again == report and hash(again) == hash(report)
    tangent = classify(tangent_bundle(fan_product(fan_pn(1), fan_pn(1))))
    zero = Mat.zero(2, 2)
    assert tangent.generators == tuple(
        (b, zero) for b in tangent.basis) + tuple((zero, b) for b in tangent.basis)
