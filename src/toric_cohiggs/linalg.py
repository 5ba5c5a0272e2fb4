"""Exact linear algebra over the rationals.

There is no floating point anywhere in this module.  Matrices hold
``fractions.Fraction`` entries (arbitrary precision, lowest terms, positive
denominator).  A subspace is stored in a canonical form: its reduced row
echelon basis with each row scaled to a primitive integer vector whose pivot
is positive.  That form is a bijection with the reduced row echelon basis
over Q (divide each row by its pivot), so equality of subspaces is equality
of their integer rows, and the Fraction basis is only built, once and on
demand, for outside callers: reports are written from the integer rows.
Every operation that returns a basis lists it in pivot-ascending order.

Elimination runs on integer rows, and input rows become integer rows there
and only there: ``_rref_rows`` scales each by the lcm of its denominators (a
row of ints is taken as it is).  Gauss-Jordan proceeds by integer
cross-multiplication with every updated row divided by its content, and each
pivot row is divided by its content, signed so the pivot is positive, at the
end.  Intersections, sums, complements, kernels and annihilators build and
consume these integer rows directly; ``_kernel_of_rows`` reads every kernel
off the reduced rows, each free column scaled by the lcm of the pivots it meets.
A subspace has two constructors: ``Subspace(n, rows)`` spans any rows (every
span, kernel, intersection and sum, and the shared ``zero`` and ``full``), and
``Subspace._canonical``, like ``Mat._trusted``, stores rows that are already
canonical without checking them again.  ``as_vec`` is the entry point for
outside values.

The predicates ``commutes`` and ``preserves`` are decided on integer
multiples too, which is exact because both are invariant under nonzero
scaling.  Each matrix computes its integer form (D, D·A), with D the lcm of
its denominators, once.  For commutation, (D_a a)(D_b b) - (D_b b)(D_a a) =
D_a D_b [a, b], so the integer products agree iff a and b commute.  For
invariance, a·w lies in s iff (D a)·w does, and membership of an integer
vector is its residue against the integer rows of s.  Every ``Mat`` product,
over Z or Q, is the one zero-skipping ``_product``.

Strings follow the schema grammar: "p" or "p/q" of ASCII digits, sign on p,
q nonzero.  Nothing else is parsed, so no string reaches ``Fraction``'s own
parser, which expands an exponent such as "1e99999999" eagerly.

All values are immutable after construction and all functions are pure.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _rational_pair(s: str) -> tuple[int, int]:
    """A string of the grammar (see the module docstring) as the pair (p, q)."""
    m = _RATIONAL.fullmatch(s)
    if m is not None:
        p, q = m.groups("1")
        try:
            p, q = int(p), int(q)
        except ValueError:  # more digits than int() converts
            pass
        else:
            if q:
                return p, q
    raise ValueError(f"not a rational: {s!r}")


def rat_from_str(s: str) -> Fraction:
    """Parse "p/q" (sign on the numerator) or a bare integer string."""
    return Fraction(*_rational_pair(s))


def _rational(x) -> Fraction:
    """An int, Fraction or grammar string as a Fraction; floats and bools are refused."""
    if type(x) is Fraction:
        return x
    if isinstance(x, str):
        return rat_from_str(x)
    if isinstance(x, (float, bool)):
        raise ValueError(f"not an exact rational: {x!r}")
    return Fraction(x)


def as_vec(entries: Iterable) -> Vec:
    """Coerce an iterable of ints / strings / Fractions to a rational vector."""
    return tuple(map(_rational, entries))


def rat_str(x: Fraction) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    if type(x) is not Fraction:
        x = _rational(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class Mat:
    """Immutable dense matrix over Q.

    ``rows`` is a tuple of equal-length tuples of Fractions; ``ncols`` must be
    given explicitly for matrices with no rows.
    """

    __slots__ = ("rows", "ncols", "_integer")

    def __init__(self, rows: Iterable[Iterable], ncols: int | None = None):
        rws = tuple(as_vec(r) for r in rows)
        if rws:
            width = len(rws[0])
            if any(len(r) != width for r in rws):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError(f"ncols={ncols} does not match row length {width}")
            ncols = width
        elif ncols is None:
            raise ValueError("a matrix with no rows needs an explicit column count")
        elif ncols < 0:
            raise ValueError("negative column count")
        object.__setattr__(self, "rows", rws)
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "_integer", None)

    @classmethod
    def _trusted(cls, rows: Iterable[Sequence[Fraction]], ncols: int) -> "Mat":
        """A matrix from rows of Fractions, each of length ncols; nothing is checked."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", tuple(map(tuple, rows)))
        object.__setattr__(m, "ncols", ncols)
        object.__setattr__(m, "_integer", None)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls._trusted([[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)], n)

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "Mat":
        return cls._trusted([(_ZERO,) * ncols] * nrows, ncols)

    @classmethod
    def elementary(cls, nrows: int, ncols: int, i: int, j: int) -> "Mat":
        """Matrix with a single 1 at position (i, j)."""
        rows = [[_ONE if r == i and c == j else _ZERO for c in range(ncols)] for r in range(nrows)]
        return cls._trusted(rows, ncols)

    def __add__(self, other: "Mat") -> "Mat":
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")
        return Mat._trusted(
            [[a + b if b else a for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
            self.ncols,
        )

    def scale(self, c) -> "Mat":
        c = _rational(c)
        return Mat._trusted([[c * a for a in r] for r in self.rows], self.ncols)

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        return Mat._trusted(_product(self.rows, other.rows, other.ncols, _ZERO), other.ncols)

    def is_zero(self) -> bool:
        return all(a == 0 for r in self.rows for a in r)

    def _integer_form(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(D, D·rows) with D the lcm of every entry's denominator, computed once."""
        if self._integer is None:
            den = lcm(*(a.denominator for r in self.rows for a in r))
            rows = tuple(tuple(a.numerator * (den // a.denominator) for a in r) for r in self.rows)
            object.__setattr__(self, "_integer", (den, rows))
        return self._integer

    def vectorize(self) -> Vec:
        """Row-major flattening into Q^(nrows*ncols)."""
        return tuple(a for r in self.rows for a in r)

    @classmethod
    def from_vec(cls, v: Sequence, nrows: int, ncols: int) -> "Mat":
        v = as_vec(v)
        if len(v) != nrows * ncols:
            raise ValueError("vector length does not factor as nrows*ncols")
        return cls._trusted([v[i * ncols:(i + 1) * ncols] for i in range(nrows)], ncols)

    def __eq__(self, other) -> bool:
        return isinstance(other, Mat) and self.ncols == other.ncols and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.ncols, self.rows))

    def __repr__(self) -> str:
        body = "; ".join("[" + ", ".join(rat_str(a) for a in r) + "]" for r in self.rows)
        return f"Mat({self.nrows}x{self.ncols}: {body})"


def _product(x: Sequence[Sequence], y: Sequence[Sequence], ncols: int, zero) -> list[list]:
    """Rows x times rows y (ncols columns) over ints or Fractions, summing from ``zero``.

    Zero entries are skipped on either side: basis matrices are mostly zeros.
    """
    out = []
    for r in x:
        acc = [zero] * ncols
        for a, brow in zip(r, y):
            if a:
                for j, b in enumerate(brow):
                    if b:
                        acc[j] += a * b
        out.append(acc)
    return out


def _integer_commute(x: Sequence[Sequence[int]], y: Sequence[Sequence[int]]) -> bool:
    """Whether x y = y x for square integer matrices of one size."""
    n = len(x)
    return _product(x, y, n, 0) == _product(y, x, n, 0)


def _square_of_size(a: Mat, n: int) -> None:
    if a.nrows != n or a.ncols != n:
        raise ValueError(f"expected a {n}x{n} matrix, got {a.nrows}x{a.ncols}")


def commutes(a: Mat, b: Mat) -> bool:
    """Whether a b = b a, decided on the integer forms of a and b."""
    _square_of_size(a, a.nrows)
    _square_of_size(b, a.nrows)
    return _integer_commute(a._integer_form()[1], b._integer_form()[1])


def _integer_row(row: Sequence) -> Sequence[int]:
    """The row times the lcm of its denominators: integers, same direction.

    Entries are ints or Fractions (a row of ints is returned as it is);
    anything else goes through ``as_vec``.
    """
    kinds = set(map(type, row))
    if kinds <= {int}:
        return row
    if not kinds <= {int, Fraction}:
        row = as_vec(row)
    den = lcm(*(a.denominator for a in row))
    return [a.numerator * (den // a.denominator) for a in row]


def _rref_rows(rows: Sequence[Sequence[Fraction | int]]) -> tuple[list[Sequence[int]], list[int]]:
    """Gauss-Jordan on integer rows; returns (reduced basis rows, pivot columns).

    Clearing column c of a row with entry f against the pivot row with pivot
    p replaces the row by p*row - f*pivot_row, divided by its content.  Each
    pivot row is divided by its content at the end, signed so that its pivot
    is positive: the result is the reduced row echelon form with every row
    scaled to a primitive integer vector, which is unique.  Input rows are
    never mutated, so a row of ints is used as it is: a returned row may be
    the caller's own input row, and must not be mutated either.  The zero
    rows of the reduced form are dropped: row i has its pivot at pivots[i].
    """
    m = [_integer_row(r) for r in rows]
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots: list[int] = []
    lead = 0
    for col in range(ncols):
        for piv in range(lead, nrows):
            if m[piv][col]:
                break
        else:
            continue
        m[lead], m[piv] = m[piv], m[lead]
        prow = m[lead]
        p = prow[col]
        for i, row in enumerate(m):
            f = row[col]
            if f and i != lead:
                new = [p * a - f * b for a, b in zip(row, prow)]
                g = gcd(*new)
                if g > 1:
                    new = [a // g for a in new]
                m[i] = new
        pivots.append(col)
        lead += 1
        if lead == nrows:
            break
    out = []
    for row, col in zip(m, pivots):
        g = gcd(*row)
        if row[col] < 0:
            g = -g
        out.append(row if g == 1 else [a // g for a in row])
    return out, pivots


def _fraction_row(row: Sequence[int], col: int) -> Vec:
    """An integer reduced row divided by its pivot at ``col``: the row over Q."""
    p = row[col]
    return tuple(Fraction(a, p) if a else _ZERO for a in row)


class Subspace:
    """A linear subspace of Q^n stored in its canonical integer form.

    ``rows`` is the reduced row echelon basis with every row scaled to a
    primitive integer vector with a positive pivot; pivot columns are
    strictly increasing and zero in the other rows.  Two subspaces are equal
    iff their rows agree.  ``pivots`` lists the rows' pivot columns, and
    ``basis`` is the same basis over Q (every pivot 1), built on first use.
    """

    __slots__ = ("ambient_dim", "rows", "pivots", "_basis")

    def __init__(self, ambient_dim: int, vectors: Iterable[Iterable] = ()):
        if ambient_dim < 0:
            raise ValueError("negative ambient dimension")
        # _rref_rows never mutates a row and _store copies what it keeps
        rows = [v if isinstance(v, (list, tuple)) else tuple(v) for v in vectors]
        for v in rows:
            if len(v) != ambient_dim:
                raise ValueError(f"vector of length {len(v)} in ambient dimension {ambient_dim}")
        self._store(ambient_dim, *_rref_rows(rows))

    def _store(self, ambient_dim: int, rows, pivots) -> None:
        object.__setattr__(self, "ambient_dim", ambient_dim)
        # tuple() of a list takes an exact-size tuple from CPython's free
        # lists; of a map it resizes one, and frees add to the lists until a
        # full collection empties them
        object.__setattr__(self, "rows", tuple([tuple(row) for row in rows]))
        object.__setattr__(self, "pivots", tuple(pivots))
        object.__setattr__(self, "_basis", None)

    @classmethod
    def _canonical(
        cls, ambient_dim: int, rows: Iterable[Sequence[int]], pivots: Iterable[int]
    ) -> "Subspace":
        """The subspace whose canonical integer rows are ``rows``; nothing is checked."""
        s = object.__new__(cls)
        s._store(ambient_dim, rows, pivots)
        return s

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        """The zero subspace of Q^n: one shared instance per n."""
        return cls._shared(ambient_dim, 0)

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        """The whole of Q^n: one shared instance per n."""
        return cls._shared(ambient_dim, ambient_dim)

    @classmethod
    def _shared(cls, ambient_dim: int, dim: int) -> "Subspace":
        """The span of Q^n's first dim unit vectors: immutable, so built once and
        shared.  The unit rows are already canonical, so nothing is eliminated."""
        got = _SHARED_SPACES.get((ambient_dim, dim))
        if got is None:
            if ambient_dim < 0:
                raise ValueError("negative ambient dimension")
            units = [[int(i == j) for j in range(ambient_dim)] for i in range(dim)]
            got = _SHARED_SPACES[ambient_dim, dim] = cls._canonical(ambient_dim, units, range(dim))
        return got

    @property
    def basis(self) -> tuple[Vec, ...]:
        """The reduced row echelon basis over Q, built once on first use."""
        if self._basis is None:
            rows = tuple(_fraction_row(row, p) for row, p in zip(self.rows, self.pivots))
            object.__setattr__(self, "_basis", rows)
        return self._basis

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def _residue(self, u: list[int]) -> tuple[list[int], int]:
        """(w·residue, w) for an integer vector u, reduced against the rows.

        Clearing pivot column p with the row b (pivot d) replaces u by
        d*u - u[p]*b; w is the product of those d.
        """
        w = 1
        for b, p in zip(self.rows, self.pivots):
            f = u[p]
            if f:
                d = b[p]
                u = [d * x - f * y for x, y in zip(u, b)]
                w *= d
        return u, w

    def contains_vector(self, v: Sequence) -> bool:
        u = _integer_row(tuple(v))
        if len(u) != self.ambient_dim:
            raise ValueError("ambient mismatch")
        return not any(self._residue(u)[0])

    def contains(self, other: "Subspace") -> bool:
        self._same_ambient(other)
        return not any(any(self._residue(u)[0]) for u in other.rows)

    def _same_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError(
                f"ambient mismatch: {self.ambient_dim} vs {other.ambient_dim}"
            )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.rows))

    def __repr__(self) -> str:
        rows = "; ".join("(" + ", ".join(rat_str(a) for a in r) + ")" for r in self.basis)
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim}: {rows})"


_SHARED_SPACES: dict[tuple[int, int], Subspace] = {}


def preserves(a: Mat, s: Subspace) -> bool:
    """Whether a maps s into s, decided on the integer form of a.

    (D a)·w has a zero residue against s for every integer row w of s.
    """
    _square_of_size(a, s.ambient_dim)
    if s.is_zero() or s.is_full():
        return True
    x = a._integer_form()[1]
    return not any(any(s._residue([sum(map(mul, row, w)) for row in x])[0]) for w in s.rows)


def _null_vectors(
    reduced: Sequence[Sequence[int]], pivots: Sequence[int], ncols: int
) -> list[list[int]]:
    """A kernel basis of an integer reduced row echelon system, one vector per
    free column; not in canonical form.

    Row i reads d_i x_{p_i} + sum_f a_if x_f = 0 over the free columns f.  The
    vector of free column f sets x_f = L, the lcm of the d_i with a_if != 0,
    and x_{p_i} = -a_if L / d_i.
    """
    pivot_set = set(pivots)
    vectors = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        hits = [(p, row[f], row[p]) for row, p in zip(reduced, pivots) if row[f]]
        scale = lcm(*(d for _, _, d in hits))
        v = [0] * ncols
        v[f] = scale
        for p, a, d in hits:
            v[p] = -a * (scale // d)
        vectors.append(v)
    return vectors


def _kernel_of_rows(rows: Sequence[Sequence[Fraction | int]], ncols: int) -> Subspace:
    """Canonical basis of {x : r·x = 0 for every row r} in Q^ncols."""
    reduced, pivots = _rref_rows(rows)
    if not pivots:
        return Subspace.full(ncols)
    return Subspace(ncols, _null_vectors(reduced, pivots, ncols))


def kernel(m: Mat) -> Subspace:
    """Canonical basis of the right kernel {x : m x = 0} in Q^ncols."""
    return _kernel_of_rows(m.rows, m.ncols)


def intersect(s: Subspace, t: Subspace) -> Subspace:
    """Canonical basis of s ∩ t.

    The larger space's rows reduce each row t_j of the other to a residue
    that vanishes at the pivot columns; sum_j c_j t_j lies in the
    intersection iff sum_j c_j residue_j = 0, a system with one equation per
    free column.  Its kernel vectors are lifted to span s ∩ t as they come,
    without the canonical form that ``_kernel_of_rows`` would add.
    """
    s._same_ambient(t)
    if s.is_zero() or t.is_zero():
        return Subspace.zero(s.ambient_dim)
    if s.is_full():
        return t
    if t.is_full():
        return s
    if s.dim < t.dim:
        s, t = t, s
    rows = t.rows
    scaled = [s._residue(u) for u in rows]
    system = [eq for eq in zip(*(res for res, _ in scaled)) if any(eq)]
    if not system:
        return t  # t ⊆ s
    reduced, pivots = _rref_rows(system)
    combos = _null_vectors(reduced, pivots, t.dim)
    if not combos:
        return Subspace.zero(s.ambient_dim)
    # residue_j is w_j times that of the row u_j, so c spans sum_j c_j w_j u_j
    vectors = []
    for c in combos:
        v = [0] * s.ambient_dim
        for cj, (_, w), u in zip(c, scaled, rows):
            if cj:
                cj *= w
                v = [x + cj * y for x, y in zip(v, u)]
        vectors.append(v)
    return Subspace(s.ambient_dim, vectors)


def subspace_sum(s: Subspace, *more: Subspace) -> Subspace:
    """Canonical basis of s + t + ..., reduced in one elimination.

    With at most one nonzero summand the sum is that summand, already canonical.
    """
    for t in more:
        s._same_ambient(t)
    nonzero = [t for t in (s, *more) if t.rows]
    if len(nonzero) < 2:
        return nonzero[0] if nonzero else s
    return Subspace(s.ambient_dim, [row for t in nonzero for row in t.rows])


def complement_within(s: Subspace, t: Subspace) -> Subspace:
    """Deterministic complement c with c ⊕ s = t, for s ⊆ t.

    c is spanned by the rows of t's canonical basis whose pivot columns are
    not pivot columns of s's basis (greedy pivot selection on t's basis); a
    subset of reduced rows is itself reduced, so it is stored as it is.
    """
    s._same_ambient(t)
    if not t.contains(s):
        raise ValueError("first subspace is not contained in the second")
    taken = set(s.pivots)
    kept = [(row, p) for row, p in zip(t.rows, t.pivots) if p not in taken]
    return Subspace._canonical(t.ambient_dim, [row for row, _ in kept], [p for _, p in kept])


def annihilator(s: Subspace) -> Subspace:
    """Functionals f with f·v = 0 for every v in s (kernel of the basis matrix)."""
    return _kernel_of_rows(s.rows, s.ambient_dim)


def _integer_inverse(rows: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """(D, D·M⁻¹) for the invertible integer matrix M with these rows, D the
    least positive integer that makes D·M⁻¹ integral.

    The integer elimination of [M | I] gives the primitive rows c_k [e_k | M⁻¹_k];
    row k of M⁻¹ has the exact denominator c_k, so D is the lcm of the c_k.
    """
    n = len(rows)
    reduced, pivots = _rref_rows([[*row, *(int(k == j) for j in range(n))]
                                  for k, row in enumerate(rows)])
    if pivots != list(range(n)):
        raise ValueError("the matrix is singular")
    den = lcm(*(row[k] for k, row in enumerate(reduced)))
    return den, [[x * (den // row[k]) for x in row[n:]] for k, row in enumerate(reduced)]


def solve_linear(a: Mat, b: Sequence) -> Vec | None:
    """One solution x of a x = b (free variables set to 0), or None."""
    b = as_vec(b)
    if len(b) != a.nrows:
        raise ValueError("right-hand side length mismatch")
    reduced, pivots = _rref_rows([r + (c,) for r, c in zip(a.rows, b)])
    if a.ncols in pivots:
        return None
    x = [_ZERO] * a.ncols
    for row, p in zip(reduced, pivots):
        x[p] = Fraction(row[a.ncols], row[p])
    return tuple(x)
