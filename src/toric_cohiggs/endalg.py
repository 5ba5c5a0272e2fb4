"""The algebra of filtration-preserving endomorphisms of a bundle's fiber.

A matrix A is a filtered endomorphism when A·E(i) ⊆ E(i) for every ray
filtration value E(i); these form a unital associative matrix algebra.  The
module computes that algebra, its center and structure constants, and the
bilinear equations cutting out commuting n-tuples of its elements (the
classification datum for invariant co-Higgs fields).

The algebra is its canonical subspace of Q^(r²) (matrices vectorized
row-major), so an element's coordinates are its entries at the pivots; the
basis element A_a is the primitive integer row R_a over its pivot entry d_a.
One integer product table P_ab = R_a R_b at the pivots is computed per
algebra, multiplying a pair only when a nonzero column of R_a meets a
nonzero row of R_b (otherwise every term is zero).  Commutativity, the tuple
equations and the center's integer system all read its differences.  The
commutator forms stay sparse, as each row's nonzero (column, value) pairs
read off those differences: the report writes the zeros, nothing stores them.

The algebra is handled as a linear solution space, not as its unit group:
invertibility is an open condition on top of the linear data and is reported,
never enforced.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .bundles import TVB
from .errors import InternalError
# solve_linear and kernel are re-exported: the benchmark's trace wraps them here.
from .linalg import (  # noqa: F401
    Mat,
    Subspace,
    _kernel_of_rows,
    _product,
    kernel,
    solve_linear,
    solve_mat_constraints,
)

_ZERO = Fraction(0)

# A bilinear form on coordinate vectors: per row, its nonzero (column, value) pairs.
SparseForm = tuple[tuple[tuple[int, Fraction], ...], ...]


def _pivot_entries(space: Subspace) -> list[int]:
    return [row[p] for row, p in zip(space.rows, space.pivots)]


@dataclass(frozen=True)
class FilteredEndAlgebra:
    """{A : A preserves every filtration step} as its canonical subspace of Q^(r²)."""

    bundle: TVB
    space: Subspace

    @property
    def dim(self) -> int:
        return self.space.dim

    @cached_property
    def basis(self) -> tuple[Mat, ...]:
        """The subspace's reduced row echelon basis as r x r matrices."""
        r = self.bundle.r
        return tuple(
            Mat._trusted([v[i * r:(i + 1) * r] for i in range(r)], r) for v in self.space.basis
        )

    def element(self, coords) -> Mat:
        """The algebra element with the given coordinates in the basis."""
        r, out = self.bundle.r, [_ZERO] * self.space.ambient_dim
        for c, v in zip(coords, self.space.basis):
            if c:
                out = [o + c * e if e else o for o, e in zip(out, v)]
        return Mat._trusted([out[i * r:(i + 1) * r] for i in range(r)], r)

    @cached_property
    def products(self) -> tuple[tuple[tuple[int, ...] | None, ...], ...]:
        """Entry (a, b) is R_a R_b at the pivots, or None when the product is zero.

        Filtered endomorphism algebras are multiplicatively closed, so a
        nonzero product outside the subspace signals an internal bug.
        """
        space, r, d = self.space, self.bundle.r, self.dim
        mats = [[row[i * r:(i + 1) * r] for i in range(r)] for row in space.rows]
        cols = [{j for mrow in m for j, e in enumerate(mrow) if e} for m in mats]
        rows = [{i for i, mrow in enumerate(m) if any(mrow)} for m in mats]
        table = [[None] * d for _ in range(d)]
        for a in range(d):
            for b in range(d):
                if cols[a].isdisjoint(rows[b]):
                    continue
                prod = [e for prow in _product(mats[a], mats[b], r, 0) for e in prow]
                if any(space._residue(prod)[0]):
                    raise InternalError("algebra basis is not closed under multiplication")
                if any(prod):
                    table[a][b] = tuple(prod[p] for p in space.pivots)
        return tuple(map(tuple, table))

    def _differences(self):
        """(a, b, k, P_ab[k] - P_ba[k]) for b < a and each nonzero difference."""
        p, zero = self.products, (0,) * self.dim
        for a in range(self.dim):
            for b in range(a):
                if p[a][b] != p[b][a]:
                    for k, (x, y) in enumerate(zip(p[a][b] or zero, p[b][a] or zero)):
                        if x != y:
                            yield a, b, k, x - y

    @cached_property
    def commutator_forms(self) -> tuple[SparseForm, ...]:
        """The nonzero forms B_k with [x·A, y·A] = sum_k B_k(x, y) A_k, sparse.

        B_k[a][b] = (P_ab[k] - P_ba[k]) / (d_a d_b), with P the product table;
        row a of a form holds its nonzero (b, B_k[a][b]) in column order.
        """
        d, dens = self.dim, _pivot_entries(self.space)
        forms: dict[int, list[list[tuple[int, Fraction]]]] = {}
        for a, b, k, diff in self._differences():  # a ascending, so columns ascend
            rows = forms.get(k)
            if rows is None:
                rows = forms[k] = [[] for _ in range(d)]
            f = Fraction(diff, dens[a] * dens[b])
            rows[a].append((b, f))
            rows[b].append((a, -f))
        return tuple(tuple(map(tuple, forms[k])) for k in sorted(forms))


def filtered_endos(v: TVB) -> FilteredEndAlgebra:
    """Solve the membership constraints A·V ⊆ V over all filtration steps.

    Each distinct step subspace constrains once; zero and full spaces
    constrain nothing.  Compatibility of the bundle is not required; the
    constraint system is meaningful for arbitrary filtration data.
    """
    steps = dict.fromkeys(
        sub for filt in v.filts for _, sub in filt.steps if 0 < sub.dim < v.r
    )
    return FilteredEndAlgebra(v, solve_mat_constraints(steps, v.r))


def is_commutative(alg: FilteredEndAlgebra) -> bool:
    return not alg.commutator_forms


def center(alg: FilteredEndAlgebra) -> list[Mat]:
    """Basis of {Z in the algebra : [Z, A] = 0 for every basis element A}.

    Coordinates x with sum_b B_k[a][b] x_b = 0 for all k, a: row (k, a) times
    d_a·L, L the lcm of the pivot entries, is (P_ab[k] - P_ba[k])·L/d_b over b.
    """
    d, dens = alg.dim, _pivot_entries(alg.space)
    scale = [lcm(*dens) // e for e in dens]
    rows: dict[tuple[int, int], list[int]] = {}
    for a, b, k, diff in alg._differences():
        rows.setdefault((k, a), [0] * d)[b] = diff * scale[b]
        rows.setdefault((k, b), [0] * d)[a] = -diff * scale[a]
    coords = _kernel_of_rows(list(rows.values()), d) if rows else Subspace.full(d)
    return [alg.element(x) for x in coords.basis]


def structure_constants(alg: FilteredEndAlgebra) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
    """Tensor c with A_a · A_b = sum_k c[a][b][k] A_k: c[a][b][k] = P_ab[k] / (d_a d_b)."""
    dens = _pivot_entries(alg.space)
    zero = (_ZERO,) * alg.dim
    return tuple(
        tuple(
            zero if prod is None else tuple(Fraction(e, da * db) if e else _ZERO for e in prod)
            for prod, db in zip(line, dens)
        )
        for line, da in zip(alg.products, dens)
    )


@dataclass(frozen=True)
class TupleVarietyEqs:
    """Bilinear equations cutting out commuting n-tuples of algebra elements.

    For coordinate vectors x, y of two tuple entries, the commutator expands
    as [x·A, y·A] = sum_d B_d(x, y) A_d; the same forms B_d apply to every
    pair of tuple slots 1 <= j < k <= n.  Identically zero forms are dropped,
    so a commutative algebra yields no equations and the commuting tuples are
    the full n·dim-parameter affine space.
    """

    n: int
    dim: int
    forms: tuple[SparseForm, ...]  # each dim x dim, one per surviving basis index

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (j, k) for j in range(1, self.n + 1) for k in range(j + 1, self.n + 1)
        )


def tuple_variety_equations(alg: FilteredEndAlgebra, n: int) -> TupleVarietyEqs:
    """Equations for n-tuples of pairwise-commuting algebra elements."""
    if n < 0:
        raise ValueError("tuple length must be >= 0")
    d = alg.dim
    if n <= 1 or d == 0:
        return TupleVarietyEqs(n, d, ())
    return TupleVarietyEqs(n, d, alg.commutator_forms)
