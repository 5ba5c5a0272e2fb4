"""The integer elimination core against two independent slow paths.

``reference.reference_rref_rows`` is the Fraction Gauss-Jordan that
``linalg._rref_rows`` used before elimination moved to integer rows; it lives
in the tests only as a reference.  ``_rref_rows`` now returns the canonical integer form: each
reduced row scaled to a primitive integer vector with a positive pivot, which
``primitive_rows`` builds from the reference.  The ``reference_*`` subspace
operations are built on it the way the library built them before (the
intersection from the stacked n x (dim s + dim t) kernel), and sympy's
``Matrix.rref``/``nullspace`` are a second, independent check.  The inputs
cover non-integer rationals, negative entries, zero rows and columns, 0 x n
and n x 0 shapes, and full, zero, equal and nested subspaces.  Every ``Mat``
built through the internal constructor must hold only ``Fraction`` entries,
every ``Subspace`` only canonical integer rows with an exact ``Fraction``
view, and each must equal the one the public, coercing constructors build
from the same rows.  The rational string parser must agree with
``Fraction``'s own parser on the strings of the schema grammar and reject
all other text.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toric_cohiggs.linalg import (
    Mat,
    Subspace,
    _rref_rows,
    annihilator,
    complement_within,
    intersect,
    kernel,
    rat_from_str,
    rat_str,
    solve_mat_constraints,
    subspace_sum,
)

from reference import only_fractions, reference_rref_rows


def primitive_row(row):
    """A rational row times the positive scalar that makes it a primitive integer vector."""
    den = lcm(*(a.denominator for a in row))
    ints = [int(a * den) for a in row]
    g = gcd(*ints)
    return [a // g for a in ints] if g else ints


def primitive_rows(reduced):
    """The reference's rows in the canonical integer form."""
    return [primitive_row(r) for r in reduced]


def fraction_view(rows, pivots):
    """Integer reduced rows divided by their pivots."""
    return [[Fraction(a, r[p]) for a in r] for r, p in zip(rows, pivots)]


def assert_integer_rows(rows, pivots):
    """One row of exact ints per pivot, primitive with a positive pivot."""
    assert len(rows) == len(pivots)
    assert all(type(a) is int for r in rows for a in r)
    for r, p in zip(rows, pivots):
        assert r[p] > 0 and gcd(*r) == 1


def reference_pivot_rows(rows):
    """The reference's reduced rows without its zero rows, and its pivots."""
    reduced, pivots = reference_rref_rows(rows)
    assert not any(a for r in reduced[len(pivots):] for a in r)
    return reduced[: len(pivots)], pivots


def reference_basis(rows):
    reduced, pivots = reference_rref_rows(rows)
    return tuple(tuple(r) for r in reduced[: len(pivots)])


def reference_kernel_vectors(rows, ncols):
    reduced, pivots = reference_rref_rows(rows)
    vectors = []
    for f in (j for j in range(ncols) if j not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][f]
        vectors.append(v)
    return vectors


def reference_kernel(m: Mat):
    return reference_basis(reference_kernel_vectors(m.rows, m.ncols))


def reference_intersect(s: Subspace, t: Subspace):
    """Kernel of the stacked system sum_i a_i s_i - sum_j b_j t_j = 0."""
    a, b = s.dim, t.dim
    cols = list(s.basis) + [tuple(-x for x in row) for row in t.basis]
    system = [list(r) for r in zip(*cols)]
    vectors = []
    for coeffs in reference_kernel_vectors(system, a + b):
        v = [Fraction(0)] * s.ambient_dim
        for c, row in zip(coeffs[:a], s.basis):
            v = [x + c * y for x, y in zip(v, row)]
        vectors.append(v)
    return reference_basis(vectors)


def reference_complement(s: Subspace, t: Subspace):
    rows = [row for row in t.basis if next(j for j, a in enumerate(row) if a) not in s.pivots]
    return reference_basis(rows)


# --------------------------------------------------------------------------
# sympy as the second reference

def to_sympy(rows, ncols):
    return sympy.Matrix(len(rows), ncols, [sympy.Rational(a.numerator, a.denominator)
                                           for r in rows for a in r])


def from_sympy(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


def sympy_rref(rows, ncols):
    reduced, pivots = to_sympy(rows, ncols).rref()
    return [[from_sympy(x) for x in reduced.row(i)] for i in range(reduced.rows)], list(pivots)


def sympy_span(rows, ncols):
    if not rows:
        return ()
    reduced, pivots = sympy_rref(rows, ncols)
    return tuple(tuple(r) for r in reduced[: len(pivots)])


def sympy_kernel(rows, ncols):
    if not rows:
        return tuple(tuple(Fraction(int(i == j)) for j in range(ncols)) for i in range(ncols))
    null = to_sympy(rows, ncols).nullspace()
    return sympy_span([[from_sympy(x) for x in v] for v in null], ncols)


def sympy_intersect(s: Subspace, t: Subspace):
    """The a-parts of the kernel of [s^T | -t^T], combined and reduced by sympy."""
    a, n = s.dim, s.ambient_dim
    if not a or not t.dim:
        return ()
    system = [list(r) for r in zip(*(list(s.basis) + [[-x for x in r] for r in t.basis]))]
    combos = [v[:a] for v in sympy_kernel(system, a + t.dim)]
    vectors = [[sum((c * x for c, x in zip(cs, col)), Fraction(0)) for col in zip(*s.basis)]
               for cs in combos]
    return sympy_span(vectors, n)


def sympy_rank(rows, ncols):
    return to_sympy(rows, ncols).rank() if rows else 0


# --------------------------------------------------------------------------
# strategies

entries = st.one_of(
    st.just(Fraction(0)),
    st.integers(-6, 6).map(Fraction),
    st.fractions(min_value=-7, max_value=7, max_denominator=9),
)


@st.composite
def matrices(draw, max_rows=5, max_cols=5, ncols=None, nrows=None):
    if ncols is None:
        ncols = draw(st.integers(0, max_cols))
    if nrows is None:
        nrows = draw(st.integers(0, max_rows))
    rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    # zero rows and columns appear on their own sometimes; force some more
    if rows and draw(st.booleans()):
        rows[draw(st.integers(0, nrows - 1))] = [Fraction(0)] * ncols
    if ncols and draw(st.booleans()):
        j = draw(st.integers(0, ncols - 1))
        for r in rows:
            r[j] = Fraction(0)
    return Mat(rows, ncols=ncols)


@st.composite
def subspaces(draw, n):
    kind = draw(st.sampled_from(["random", "random", "random", "zero", "full"]))
    if kind == "zero":
        return Subspace.zero(n)
    if kind == "full":
        return Subspace.full(n)
    return Subspace(n, draw(matrices(ncols=n)).rows)


@st.composite
def subspace_pairs(draw):
    n = draw(st.integers(0, 5))
    how = draw(st.sampled_from(["overlap"] * 4 + ["independent", "equal", "inside", "around"]))
    if how == "overlap":
        common, only_s, only_t = (draw(matrices(max_rows=3, ncols=n)).rows for _ in range(3))
        return Subspace(n, common + only_s), Subspace(n, common + only_t)
    s = draw(subspaces(n))
    if how == "equal":
        return s, Subspace(n, s.basis)
    if how in ("inside", "around"):
        coeffs = draw(matrices(ncols=s.dim))
        inner = Subspace(n, (coeffs @ Mat(s.basis, ncols=n)).rows)
        return (inner, s) if how == "inside" else (s, subspace_sum(s, draw(subspaces(n))))
    return s, draw(subspaces(n))


def assert_trusted_subspace(s: Subspace):
    assert only_fractions(s.basis)
    assert isinstance(s.rows, tuple) and all(isinstance(r, tuple) for r in s.rows)
    assert_integer_rows(s.rows, s.pivots)
    assert s == Subspace(s.ambient_dim, s.basis)
    assert s.pivots == tuple(next(j for j, a in enumerate(r) if a) for r in s.basis)
    assert [list(r) for r in s.basis] == fraction_view(s.rows, s.pivots)


def assert_trusted_mat(m: Mat):
    assert only_fractions(m.rows)
    assert all(len(r) == m.ncols for r in m.rows)
    assert m == Mat(m.rows, ncols=m.ncols)


# --------------------------------------------------------------------------
# elimination

@settings(max_examples=150, deadline=None)
@given(matrices(max_rows=6, max_cols=6))
def test_rref_rows_matches_fraction_reference_and_sympy(m):
    reduced, pivots = _rref_rows(m.rows)
    ref_reduced, ref_pivots = reference_pivot_rows(m.rows)
    assert pivots == ref_pivots
    assert reduced == primitive_rows(ref_reduced)
    assert_integer_rows(reduced, pivots)
    assert fraction_view(reduced, pivots) == ref_reduced
    assert reference_rref_rows(m.rows) == (sympy_rref(m.rows, m.ncols) if m.rows else ([], []))
    # integer input rows in the same directions reduce to the same rows
    assert _rref_rows([primitive_row(r) for r in m.rows]) == (reduced, pivots)


def test_rref_rows_shapes_without_entries():
    assert _rref_rows([]) == ([], [])
    assert _rref_rows([[], []]) == ([], [])
    assert _rref_rows([[Fraction(0)] * 3] * 2) == ([], [])
    assert _rref_rows([[0, 0], [0, 5], [0, 0]]) == ([[0, 1]], [1])


def test_rref_rows_large_entries():
    big = Fraction(10**30 + 7, 3**40)
    rows = [[big, Fraction(1), Fraction(-2, 3)], [Fraction(5), big * big, Fraction(1, 7)],
            [big, Fraction(0), big]]
    for rows in (rows, rows[:2], [rows[0], [2 * a for a in rows[0]], rows[1]]):
        reduced, pivots = _rref_rows(rows)
        ref_reduced, ref_pivots = reference_pivot_rows(rows)
        assert (reduced, pivots) == (primitive_rows(ref_reduced), ref_pivots)
        assert_integer_rows(reduced, pivots)
        assert fraction_view(reduced, pivots) == ref_reduced


@settings(max_examples=120, deadline=None)
@given(matrices(max_rows=5, max_cols=6))
def test_kernel_matches_references(m):
    ker = kernel(m)
    assert ker.basis == reference_kernel(m)
    assert ker.basis == sympy_kernel(m.rows, m.ncols)
    assert_trusted_subspace(ker)


# --------------------------------------------------------------------------
# subspace operations

@settings(max_examples=200, deadline=None)
@given(subspace_pairs())
def test_intersect_matches_references(pair):
    s, t = pair
    n = s.ambient_dim
    got = intersect(s, t)
    assert got == intersect(t, s)
    assert got.basis == reference_intersect(s, t)
    assert got.basis == sympy_intersect(s, t)
    assert got.dim == s.dim + t.dim - sympy_rank(list(s.basis) + list(t.basis), n)
    assert_trusted_subspace(got)


@settings(max_examples=150, deadline=None)
@given(subspace_pairs(), st.data())
def test_sum_matches_references(pair, data):
    s, t = pair
    u = data.draw(subspaces(s.ambient_dim))
    got = subspace_sum(s, t, u)
    rows = list(s.basis) + list(t.basis) + list(u.basis)
    assert got.basis == reference_basis(rows)
    assert got.basis == sympy_span(rows, s.ambient_dim)
    assert_trusted_subspace(got)


@settings(max_examples=150, deadline=None)
@given(subspace_pairs())
def test_complement_matches_references(pair):
    s, t = pair
    if not t.contains(s):
        s = intersect(s, t)
    c = complement_within(s, t)
    assert c.basis == reference_complement(s, t)
    n = t.ambient_dim
    assert c.dim + s.dim == t.dim
    assert sympy_rank(list(c.basis) + list(s.basis), n) == t.dim
    assert sympy_span(list(c.basis) + list(t.basis), n) == t.basis
    assert_trusted_subspace(c)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5).flatmap(subspaces))
def test_annihilator_matches_references(s):
    ann = annihilator(s)
    assert ann.basis == reference_kernel(Mat(s.basis, ncols=s.ambient_dim))
    assert ann.basis == sympy_kernel(list(s.basis), s.ambient_dim)
    assert_trusted_subspace(ann)


@settings(max_examples=150, deadline=None)
@given(matrices(max_rows=5, max_cols=5))
def test_subspace_constructions_agree(m):
    """Fraction, integer, string and generator rows give one canonical value,
    and a caller's rows mutated afterwards leave it as it was."""
    n = m.ncols
    mutated = [primitive_row(r) for r in m.rows]
    spaces = [
        Subspace(n, m.rows),
        Subspace(n, [primitive_row(r) for r in m.rows]),
        Subspace(n, tuple(tuple(primitive_row(r)) for r in m.rows)),
        Subspace(n, [[str(a) for a in r] for r in m.rows]),
        Subspace(n, ((a for a in r) for r in m.rows)),
        Subspace(n, mutated),
    ]
    for row in mutated:
        row.reverse()
        row.append(1)
    basis = reference_basis(m.rows)
    if basis == tuple(tuple(r) for r in Mat.identity(n).rows):
        spaces.append(Subspace.full(n))
    if not basis:
        spaces.append(Subspace.zero(n))
    for s in spaces:
        assert_trusted_subspace(s)
        assert s == spaces[0] and hash(s) == hash(spaces[0])
        assert s.basis == basis
        assert s.rows == tuple(tuple(primitive_row(r)) for r in basis)
        assert s.pivots == spaces[0].pivots
        assert s.dim == len(basis)


def test_shared_zero_and_full_spaces_are_canonical():
    for n in range(5):
        assert Subspace.zero(n) is Subspace.zero(n)
        assert Subspace.zero(n) == Subspace(n)
        assert Subspace.full(n) == Subspace(n, Mat.identity(n).rows)
        assert_trusted_subspace(Subspace.zero(n))
        assert_trusted_subspace(Subspace.full(n))
        assert hash(Subspace.full(n)) == hash(Subspace(n, Mat.identity(n).rows))
        assert Subspace.full(n).rows == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        assert Subspace.zero(n).rows == Subspace.zero(n).basis == ()


def test_negative_ambient_dimension_is_refused_by_every_constructor():
    before = [(Subspace.zero(n), Subspace.full(n)) for n in range(3)]
    for build in (Subspace, Subspace.zero, Subspace.full):
        with pytest.raises(ValueError, match="^negative ambient dimension$"):
            build(-1)
    for n, (zero, full) in enumerate(before):
        assert Subspace.zero(n) is zero and Subspace.full(n) is full
    for n in range(3, 6):
        assert Subspace.zero(n) is Subspace.zero(n) and Subspace.full(n) is Subspace.full(n)


# --------------------------------------------------------------------------
# matrices built through the trusted constructor

@st.composite
def product_pairs(draw):
    k = draw(st.integers(0, 4))
    return draw(matrices(max_rows=4, ncols=k)), draw(matrices(max_cols=4, nrows=k))


@settings(max_examples=100, deadline=None)
@given(product_pairs(), entries)
def test_matrix_arithmetic_holds_only_fractions(pair, c):
    a, b = pair
    assert_trusted_mat(a @ b)
    for m in (a + a, a.scale(c), Mat.identity(a.ncols), Mat.zero(a.nrows, a.ncols),
              Mat.from_vec(a.vectorize(), a.nrows, a.ncols)):
        assert_trusted_mat(m)
    assert Mat.from_vec(a.vectorize(), a.nrows, a.ncols) == a


def test_solve_mat_constraints_holds_only_fractions():
    line = Subspace(3, [[Fraction(1), Fraction(-1, 2), Fraction(0)]])
    plane = Subspace(3, [[1, 0, 2], [0, 1, Fraction(1, 3)]])
    space = solve_mat_constraints([line, plane], 3)
    assert space.dim
    assert_trusted_subspace(space)
    for v in space.basis:
        assert_trusted_mat(Mat.from_vec(v, 3, 3))


# --------------------------------------------------------------------------
# rational strings: the schema grammar against Fraction's own parser

GRAMMAR = re.compile(r"[+-]?[0-9]+(/[0-9]+)?", re.ASCII)


def reference_rat_from_str(s: str) -> Fraction:
    """Fraction(s) for a string of the grammar; "not a rational" otherwise.

    Only grammar strings reach Fraction, which expands exponents eagerly.
    """
    if GRAMMAR.fullmatch(s):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError):  # a zero denominator, or too many digits
            pass
    raise ValueError(f"not a rational: {s!r}")


def parse_outcome(parse, s: str):
    try:
        x = parse(s)
    except ValueError as exc:
        return "error", str(exc)
    return type(x), x


numeric_text = st.text(
    alphabet=st.sampled_from(
        list("0123456789_+-/.eE \t\n") + ["\u0661", "\u0966", "\uff19", "\u2003", "\x1c", "\x00"]
    ),
    max_size=12,
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(), numeric_text))
@example("\u0661\u0662")  # Arabic-Indic digits
@example(" \u2003-7\n")
@example("1_000")
@example("1__0")
@example("_1")
@example("1e3")
@example("3.5")
@example("0x10")
@example("-0")
@example("+12/-3")
@example("1/0")
@example("")
@example("9" * 5000)
@example("-" + "9" * 5000)
@example("1/" + "9" * 5000)
@example("1e99999999")
@example(" 7")
@example("7\n")
@example("1/2 ")
def test_rat_from_str_matches_fraction_parse(s):
    assert parse_outcome(rat_from_str, s) == parse_outcome(reference_rat_from_str, s)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(), st.fractions()))
def test_rat_str_of_ints_and_fractions(x):
    assert rat_str(x) == rat_str(Fraction(x)) == str(Fraction(x))
