"""Exact linear algebra: canonical forms, lattice operations, constraint solver."""

import os
import random
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toric_cohiggs
from toric_cohiggs import (
    Mat,
    Subspace,
    complement_within,
    intersect,
    kernel,
    rat_from_str,
    rat_str,
    solve_mat_constraints,
    subspace_sum,
)
from toric_cohiggs.linalg import _rref_rows, annihilator, solve_linear

from conftest import (
    random_invertible,
    random_matrix,
    random_subspace,
    random_subspace_inside,
)
from reference import mul_vec

small_entries = st.integers(min_value=-6, max_value=6)


def square_mats(n):
    return st.lists(
        st.lists(small_entries, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(Mat)


# ---------------------------------------------------------------------------
# integer elimination

def test_rref_invertible_gives_identity():
    assert _rref_rows([[2, 0], [0, 3]]) == ([[1, 0], [0, 1]], [0, 1])


def test_rref_rank_one_duplication():
    assert _rref_rows([[1, 2], [2, 4]]) == ([[1, 2]], [0])


@settings(max_examples=60)
@given(square_mats(5))
def test_rref_idempotent(m):
    once = _rref_rows(m.rows)
    assert _rref_rows(once[0]) == once


@settings(max_examples=60)
@given(square_mats(4))
def test_rref_preserves_row_space(m):
    reduced, _ = _rref_rows(m.rows)
    assert Subspace(4, m.rows) == Subspace(4, reduced)


# ---------------------------------------------------------------------------
# canonical subspaces

def test_canonical_under_reordering_and_rescaling():
    rng = random.Random(7)
    for _ in range(40):
        s = random_subspace(rng, 4, rng.randint(1, 4))
        rows = []
        for row in s.basis:
            c = Q(rng.choice([1, 2, -3, Q(1, 2)]))
            rows.append([c * a for a in row])
        rng.shuffle(rows)
        assert Subspace(4, rows) == s


def test_subspace_equality_is_entrywise():
    a = Subspace(2, [(1, 1)])
    b = Subspace(2, [(2, 2)])
    assert a == b and a.basis == b.basis


# ---------------------------------------------------------------------------
# intersect / sum / complement

def test_intersect_of_axes_is_zero():
    s = Subspace(2, [(1, 0)])
    t = Subspace(2, [(0, 1)])
    assert intersect(s, t).is_zero()


def test_intersect_idempotent():
    s = Subspace(3, [(1, 2, 3), (0, 1, 1)])
    assert intersect(s, s) == s


def test_intersect_planes_in_q3():
    s = Subspace(3, [(1, 0, 0), (0, 1, 0)])
    t = Subspace(3, [(0, 1, 0), (0, 0, 1)])
    assert intersect(s, t) == Subspace(3, [(0, 1, 0)])


def test_sum_with_zero_and_axes():
    s = Subspace(2, [(1, 0)])
    assert subspace_sum(s, Subspace.zero(2)) == s
    assert subspace_sum(s, Subspace(2, [(0, 1)])).is_full()


def test_full_space_is_one_shared_canonical_instance():
    for r in range(5):
        assert Subspace.full(r) is Subspace.full(r)
        identity = [[int(i == j) for j in range(r)] for i in range(r)]
        assert Subspace.full(r) == Subspace(r, identity)


def test_modular_dimension_law_on_random_pairs():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 5)
        s = random_subspace(rng, n, rng.randint(0, n))
        t = random_subspace(rng, n, rng.randint(0, n))
        assert (
            subspace_sum(s, t).dim + intersect(s, t).dim == s.dim + t.dim
        )


def test_intersect_sum_commutative_associative():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(1, 4)
        s, t, u = (random_subspace(rng, n, rng.randint(0, n)) for _ in range(3))
        assert intersect(s, t) == intersect(t, s)
        assert subspace_sum(s, t) == subspace_sum(t, s)
        assert intersect(intersect(s, t), u) == intersect(s, intersect(t, u))
        assert subspace_sum(subspace_sum(s, t), u) == subspace_sum(s, subspace_sum(t, u))
        assert subspace_sum(s, t, u) == subspace_sum(subspace_sum(s, t), u)


def test_intersection_members_lie_in_both():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 5)
        s = random_subspace(rng, n, rng.randint(0, n))
        t = random_subspace(rng, n, rng.randint(0, n))
        meet = intersect(s, t)
        for v in meet.basis:
            assert s.contains_vector(v) and t.contains_vector(v)


def test_complement_trivial_cases():
    t = Subspace(3, [(1, 0, 0), (0, 1, 1)])
    assert complement_within(Subspace.zero(3), t) == t
    assert complement_within(t, t).is_zero()


def test_complement_pivot_rule():
    c = complement_within(Subspace(2, [(1, 1)]), Subspace.full(2))
    assert c == Subspace(2, [(0, 1)])


def test_complement_direct_sum_property():
    rng = random.Random(19)
    for _ in range(80):
        n = rng.randint(1, 5)
        t = random_subspace(rng, n, rng.randint(0, n))
        s = random_subspace_inside(rng, t, rng.randint(0, t.dim))
        c = complement_within(s, t)
        assert c.dim + s.dim == t.dim
        assert intersect(c, s).is_zero()
        assert subspace_sum(c, s) == t


def test_absorption_laws():
    rng = random.Random(20)
    for _ in range(60):
        n = rng.randint(1, 4)
        s = random_subspace(rng, n, rng.randint(0, n))
        t = random_subspace(rng, n, rng.randint(0, n))
        assert intersect(s, subspace_sum(s, t)) == s
        assert subspace_sum(s, intersect(s, t)) == s


def test_complement_requires_containment():
    with pytest.raises(ValueError):
        complement_within(Subspace(2, [(1, 0)]), Subspace(2, [(0, 1)]))


def test_ambient_mismatch_raises():
    with pytest.raises(ValueError):
        intersect(Subspace.zero(2), Subspace.zero(3))
    with pytest.raises(ValueError):
        subspace_sum(Subspace.full(2), Subspace.full(3))


# ---------------------------------------------------------------------------
# kernels and solving

def test_kernel_membership_and_rank_nullity():
    rng = random.Random(23)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = Mat([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
        ker = kernel(m)
        rank = Subspace(cols, m.rows).dim
        assert ker.dim == cols - rank
        for v in ker.basis:
            assert all(a == 0 for a in mul_vec(m, v))


def test_solve_linear_roundtrip():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n)
        x = [rng.randint(-3, 3) for _ in range(n)]
        b = mul_vec(a, x)
        sol = solve_linear(a, b)
        assert sol is not None
        assert mul_vec(a, sol) == b


def test_solve_linear_detects_inconsistency():
    a = Mat([[1, 0], [1, 0]])
    assert solve_linear(a, (0, 1)) is None


def test_annihilator_pairs_to_zero():
    s = Subspace(3, [(1, 2, 0), (0, 0, 1)])
    ann = annihilator(s)
    assert ann.dim == 1
    for f in ann.basis:
        for v in s.basis:
            assert sum(a * b for a, b in zip(f, v)) == 0


# ---------------------------------------------------------------------------
# the matrix constraint solver

def _matrices(space, r):
    return [Mat.from_vec(v, r, r) for v in space.basis]


def test_empty_constraints_give_full_endomorphisms():
    sols = solve_mat_constraints([], 2)
    assert sols == Subspace.full(4)
    assert _matrices(sols, 2)[0] == Mat.elementary(2, 2, 0, 0)


def test_axis_constraints_give_diagonals():
    cons = [Subspace(2, [(1, 0)]), Subspace(2, [(0, 1)])]
    sols = solve_mat_constraints(cons, 2)
    assert _matrices(sols, 2) == [Mat([[1, 0], [0, 0]]), Mat([[0, 0], [0, 1]])]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_generic_lines_force_scalars(n):
    # n+1 lines: the axes and the all-ones direction, each mapped to itself
    cons = [Subspace(n, [tuple(int(j == i) for j in range(n))]) for i in range(n)]
    cons.append(Subspace(n, [(1,) * n]))
    sols = solve_mat_constraints(cons, n)
    assert _matrices(sols, n) == [Mat.identity(n)]


def test_solve_mat_constraints_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_mat_constraints([Subspace.full(3)], 2)
    with pytest.raises(ValueError):
        solve_mat_constraints([Subspace(2, [(1, 0)]), Subspace(3, [(1, 0, 0)])], 2)


def test_solutions_satisfy_constraints_and_redundancy_is_free():
    rng = random.Random(31)
    for _ in range(25):
        r = rng.randint(1, 3)
        cons = [random_subspace(rng, r, rng.randint(0, r)) for _ in range(rng.randint(0, 3))]
        sols = solve_mat_constraints(cons, r)
        assert sols.ambient_dim == r * r
        for a in _matrices(sols, r):
            for v in cons:
                for w in v.basis:
                    assert v.contains_vector(mul_vec(a, w))
        # every solution is found: each elementary matrix either satisfies
        # the constraints or not, and the full solution space contains the
        # ones that do
        for i in range(r):
            for j in range(r):
                e = Mat.elementary(r, r, i, j)
                if all(v.contains_vector(mul_vec(e, w)) for v in cons for w in v.basis):
                    assert sols.contains_vector(e.vectorize())
        # adding a repeated constraint changes nothing
        if cons:
            again = solve_mat_constraints(cons + [cons[0]], r)
            assert again == sols


# ---------------------------------------------------------------------------
# rational strings

@pytest.mark.parametrize(
    "value,expected",
    [(Q(3), "3"), (Q(-3), "-3"), (Q(1, 2), "1/2"), (Q(-5, 7), "-5/7"), (Q(0), "0")],
)
def test_rat_str_forms(value, expected):
    assert rat_str(value) == expected
    assert rat_from_str(expected) == value


@pytest.mark.parametrize("bad", [0.1, 0.5, 2.0, True, False])
def test_mat_rejects_float_and_bool_entries(bad):
    with pytest.raises(ValueError, match="not an exact rational"):
        Mat([[1, bad]])
    with pytest.raises(ValueError, match="not an exact rational"):
        Mat.from_vec([bad], 1, 1)


@pytest.mark.parametrize("bad", [0.5, 2.0, True, False])
def test_subspace_rejects_float_and_bool_entries(bad):
    with pytest.raises(ValueError, match="not an exact rational"):
        Subspace(2, [(bad, 1)])
    with pytest.raises(ValueError, match="not an exact rational"):
        Subspace(2, [(bad, bad)])


@pytest.mark.parametrize("bad", [0.1, 1.0, True, False])
def test_scale_rejects_float_and_bool_factors(bad):
    with pytest.raises(ValueError, match="not an exact rational"):
        Mat.identity(2).scale(bad)


def test_rat_from_str_rejects_garbage():
    with pytest.raises(ValueError):
        rat_from_str("one half")


def test_exponent_strings_are_rejected_at_once():
    # Fraction's own parser expands 10**99999999 before it answers; the child
    # process turns such a regression into a timeout instead of a hang
    code = """if True:
        import time
        from toric_cohiggs import Mat, rat_from_str
        for parse in (rat_from_str, lambda s: Mat([[s]])):
            start = time.perf_counter()
            try:
                parse("1e99999999")
            except ValueError as exc:
                assert "not a rational" in str(exc), exc
            else:
                raise AssertionError("accepted")
            assert time.perf_counter() - start < 1
    """
    env = {**os.environ, "PYTHONPATH": str(Path(toric_cohiggs.__file__).parents[1])}
    r = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                       text=True, timeout=60)
    assert r.returncode == 0, r.stderr


@settings(max_examples=80)
@given(st.fractions())
def test_rat_string_roundtrip(q):
    assert rat_from_str(rat_str(q)) == q


def test_mat_identity_elementary_and_product():
    e12 = Mat.elementary(2, 2, 0, 1)
    e21 = Mat.elementary(2, 2, 1, 0)
    assert e12 @ e21 == Mat([[1, 0], [0, 0]])
    assert Mat.identity(3) @ Mat.identity(3) == Mat.identity(3)


def test_product_with_empty_inner_dimension_is_zero():
    assert Mat([[], []], ncols=0) @ Mat([], ncols=3) == Mat.zero(2, 3)
    assert Mat([], ncols=2) @ Mat.zero(2, 3) == Mat([], ncols=3)
    assert Mat.zero(2, 3) @ Mat([[], [], []], ncols=0) == Mat([[], []], ncols=0)


@st.composite
def sparse_factor_pairs(draw):
    """Two multipliable matrices, mostly zeros, any dimension possibly 0."""
    n, k, m = (draw(st.integers(min_value=0, max_value=4)) for _ in range(3))
    zero = st.just(Q(0))
    entry = st.one_of(zero, zero, zero, st.fractions(-4, 4, max_denominator=3))

    def mat(rows, cols):
        grid = st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
        return Mat(draw(grid), ncols=cols)

    return mat(n, k), mat(k, m)


@given(sparse_factor_pairs())
def test_sparse_product_matches_naive_triple_sum(pair):
    a, b = pair
    prod = a @ b
    assert (prod.nrows, prod.ncols) == (a.nrows, b.ncols)
    for i in range(a.nrows):
        for j in range(b.ncols):
            naive = sum((a.rows[i][t] * b.rows[t][j] for t in range(a.ncols)), Q(0))
            assert prod.rows[i][j] == naive
            assert type(prod.rows[i][j]) is Q


def test_random_invertible_is_invertible():
    rng = random.Random(37)
    g = random_invertible(rng, 3)
    assert Subspace(3, g.rows).dim == 3
