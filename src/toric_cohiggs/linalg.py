"""Exact linear algebra over the rationals.

Scalars are ``fractions.Fraction`` (arbitrary precision, always in lowest
terms, positive denominator); there is no floating point anywhere in this
module.  Subspaces are stored in a canonical form, the reduced row echelon
basis, so that equality of subspaces is entrywise equality of bases.  Every
operation that returns a basis lists it in pivot-ascending order.

All values are immutable after construction and all functions are pure.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Q = Fraction

Vec = tuple[Fraction, ...]


def as_vec(entries: Iterable) -> Vec:
    """Coerce an iterable of ints / strings / Fractions to a rational vector."""
    return tuple(Q(x) for x in entries)


def rat_str(x: Fraction) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    x = Q(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def rat_from_str(s: str) -> Fraction:
    """Parse "p/q" (sign on the numerator) or a bare integer string."""
    try:
        x = Q(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {s!r}") from exc
    return x


class Mat:
    """Immutable dense matrix over Q.

    ``rows`` is a tuple of equal-length tuples of Fractions; ``ncols`` must be
    given explicitly for matrices with no rows.
    """

    __slots__ = ("rows", "ncols")

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

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls([[Q(int(i == j)) for j in range(n)] for i in range(n)], ncols=n)

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "Mat":
        return cls([[Q(0)] * ncols for _ in range(nrows)], ncols=ncols)

    @classmethod
    def elementary(cls, nrows: int, ncols: int, i: int, j: int) -> "Mat":
        """Matrix with a single 1 at position (i, j)."""
        rows = [[Q(int(r == i and c == j)) for c in range(ncols)] for r in range(nrows)]
        return cls(rows, ncols=ncols)

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def __add__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
            ncols=self.ncols,
        )

    def __sub__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
            ncols=self.ncols,
        )

    def __neg__(self) -> "Mat":
        return Mat([[-a for a in r] for r in self.rows], ncols=self.ncols)

    def scale(self, c) -> "Mat":
        c = Q(c)
        return Mat([[c * a for a in r] for r in self.rows], ncols=self.ncols)

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        # row times matrix, skipping zero entries on either side
        out = []
        for r in self.rows:
            acc = [Q(0)] * other.ncols
            for a, brow in zip(r, other.rows):
                if a:
                    for j, b in enumerate(brow):
                        if b:
                            acc[j] += a * b
            out.append(acc)
        return Mat(out, ncols=other.ncols)

    def mul_vec(self, v: Sequence) -> Vec:
        v = as_vec(v)
        if len(v) != self.ncols:
            raise ValueError(f"vector of length {len(v)} against {self.nrows}x{self.ncols} matrix")
        return tuple(sum(a * b for a, b in zip(r, v)) for r in self.rows)

    def transpose(self) -> "Mat":
        return Mat(list(zip(*self.rows)) if self.rows else [], ncols=self.nrows)

    def is_zero(self) -> bool:
        return all(a == 0 for r in self.rows for a in r)

    def vectorize(self) -> Vec:
        """Row-major flattening into Q^(nrows*ncols)."""
        return tuple(a for r in self.rows for a in r)

    @classmethod
    def from_vec(cls, v: Sequence, nrows: int, ncols: int) -> "Mat":
        v = as_vec(v)
        if len(v) != nrows * ncols:
            raise ValueError("vector length does not factor as nrows*ncols")
        return cls([v[i * ncols:(i + 1) * ncols] for i in range(nrows)], ncols=ncols)

    def _same_shape(self, other: "Mat") -> None:
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")

    def __eq__(self, other) -> bool:
        return isinstance(other, Mat) and self.ncols == other.ncols and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.ncols, self.rows))

    def __repr__(self) -> str:
        body = "; ".join("[" + ", ".join(rat_str(a) for a in r) + "]" for r in self.rows)
        return f"Mat({self.nrows}x{self.ncols}: {body})"


def commutator(a: Mat, b: Mat) -> Mat:
    return a @ b - b @ a


def _rref_rows(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Gauss-Jordan on a copy; returns (all rows incl. zero rows, pivot columns)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    lead = 0
    for col in range(ncols):
        piv = next((i for i in range(lead, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[lead], m[piv] = m[piv], m[lead]
        inv = m[lead][col]
        m[lead] = [a / inv for a in m[lead]]
        for i in range(len(m)):
            if i != lead and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[lead])]
        pivots.append(col)
        lead += 1
        if lead == len(m):
            break
    return m, pivots


def rref(m: Mat) -> Mat:
    """The unique reduced row echelon form; the row space is preserved."""
    reduced, _ = _rref_rows(m.rows)
    return Mat(reduced, ncols=m.ncols)


class Subspace:
    """A linear subspace of Q^n stored as its reduced-row-echelon basis.

    The basis is canonical: rows are nonzero, pivots are 1 with strictly
    increasing columns, and pivot columns are zero elsewhere.  Two subspaces
    are equal iff their stored bases agree entrywise.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, vectors: Iterable[Iterable] = ()):
        if ambient_dim < 0:
            raise ValueError("negative ambient dimension")
        vecs = [as_vec(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise ValueError(f"vector of length {len(v)} in ambient dimension {ambient_dim}")
        reduced, pivots = _rref_rows(vecs)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", tuple(tuple(r) for r in reduced[: len(pivots)]))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim)

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        """The whole of Q^n: one shared instance per n, since subspaces are immutable."""
        got = _FULL_SPACES.get(ambient_dim)
        if got is None:
            got = _FULL_SPACES[ambient_dim] = cls(ambient_dim, Mat.identity(ambient_dim).rows)
        return got

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(next(j for j, a in enumerate(row) if a != 0) for row in self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def _reduce(self, v: Vec) -> Vec:
        """Residue of v after elimination against the canonical basis."""
        v = list(v)
        for row, p in zip(self.basis, self.pivots):
            c = v[p]
            if c != 0:
                v = [a - c * b for a, b in zip(v, row)]
        return tuple(v)

    def contains_vector(self, v: Sequence) -> bool:
        v = as_vec(v)
        if len(v) != self.ambient_dim:
            raise ValueError("ambient mismatch")
        return all(a == 0 for a in self._reduce(v))

    def contains(self, other: "Subspace") -> bool:
        self._same_ambient(other)
        return all(self.contains_vector(v) for v in other.basis)

    def basis_mat(self) -> Mat:
        return Mat(self.basis, ncols=self.ambient_dim)

    def _same_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError(
                f"ambient mismatch: {self.ambient_dim} vs {other.ambient_dim}"
            )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        rows = "; ".join("(" + ", ".join(rat_str(a) for a in r) + ")" for r in self.basis)
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim}: {rows})"


_FULL_SPACES: dict[int, Subspace] = {}


def kernel(m: Mat) -> Subspace:
    """Canonical basis of the right kernel {x : m x = 0} in Q^ncols."""
    reduced, pivots = _rref_rows(m.rows)
    pivot_set = set(pivots)
    free = [j for j in range(m.ncols) if j not in pivot_set]
    vectors = []
    for f in free:
        v = [Q(0)] * m.ncols
        v[f] = Q(1)
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][f]
        vectors.append(v)
    return Subspace(m.ncols, vectors)


def intersect(s: Subspace, t: Subspace) -> Subspace:
    """Canonical basis of s ∩ t."""
    s._same_ambient(t)
    if s.is_zero() or t.is_zero():
        return Subspace.zero(s.ambient_dim)
    if s.is_full():
        return t
    if t.is_full():
        return s
    # Solve sum_i a_i s_i - sum_j b_j t_j = 0; the a-part spans the intersection.
    a, b = s.dim, t.dim
    cols = list(s.basis) + [tuple(-x for x in row) for row in t.basis]
    m = Mat(list(zip(*cols)), ncols=a + b)
    ker = kernel(m)
    vectors = []
    for coeffs in ker.basis:
        v = [Q(0)] * s.ambient_dim
        for c, row in zip(coeffs[:a], s.basis):
            if c != 0:
                v = [x + c * y for x, y in zip(v, row)]
        vectors.append(v)
    return Subspace(s.ambient_dim, vectors)


def subspace_sum(s: Subspace, *more: Subspace) -> Subspace:
    """Canonical basis of s + t + ..., reduced in one elimination."""
    rows = list(s.basis)
    for t in more:
        s._same_ambient(t)
        rows.extend(t.basis)
    return Subspace(s.ambient_dim, rows)


def complement_within(s: Subspace, t: Subspace) -> Subspace:
    """Deterministic complement c with c ⊕ s = t, for s ⊆ t.

    c is spanned by the rows of t's canonical basis whose pivot columns are
    not pivot columns of s's basis (greedy pivot selection on t's basis).
    """
    s._same_ambient(t)
    if not t.contains(s):
        raise ValueError("first subspace is not contained in the second")
    taken = set(s.pivots)
    rows = [row for row, p in zip(t.basis, t.pivots) if p not in taken]
    return Subspace(t.ambient_dim, rows)


def annihilator(s: Subspace) -> Subspace:
    """Functionals f with f·v = 0 for every v in s (kernel of the basis matrix)."""
    if s.is_zero():
        return Subspace.full(s.ambient_dim)
    return kernel(s.basis_mat())


def solve_linear(a: Mat, b: Sequence) -> Vec | None:
    """One solution x of a x = b (free variables set to 0), or None."""
    b = as_vec(b)
    if len(b) != a.nrows:
        raise ValueError("right-hand side length mismatch")
    aug = Mat([list(r) + [c] for r, c in zip(a.rows, b)] or [], ncols=a.ncols + 1)
    reduced, pivots = _rref_rows(aug.rows)
    if a.ncols in pivots:
        return None
    x = [Q(0)] * a.ncols
    for i, p in enumerate(pivots):
        x[p] = reduced[i][a.ncols]
    return tuple(x)


def solve_mat_constraints(
    constraints: Sequence[tuple[Sequence, Subspace]], r: int
) -> list[Mat]:
    """Canonical basis of {A in Q^{r x r} : A·w ∈ V for every pair (w, V)}.

    A is vectorized row-major into Q^(r^2); each constraint contributes the
    conditions "every functional vanishing on V kills A·w", and the result is
    the kernel of the stacked conditions, reshaped to matrices in
    pivot-ascending order.
    """
    rows = []
    for w, v in constraints:
        w = as_vec(w)
        if len(w) != r or v.ambient_dim != r:
            raise ValueError("constraint dimension mismatch")
        for f in annihilator(v).basis:
            # coefficient of A[i][j] in f·(A w) is f_i * w_j
            rows.append([f[i] * w[j] for i in range(r) for j in range(r)])
    if not rows:
        ker = Subspace.full(r * r)
    else:
        ker = kernel(Mat(rows, ncols=r * r))
    return [Mat.from_vec(v, r, r) for v in ker.basis]
