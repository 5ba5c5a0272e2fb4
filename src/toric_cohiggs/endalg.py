"""The algebra of filtration-preserving endomorphisms of a bundle's fiber.

A matrix A is a filtered endomorphism when A·E(i) ⊆ E(i) for every ray
filtration value E(i); these form a unital associative matrix algebra.  The
module computes that algebra, its center and structure constants, and the
bilinear equations cutting out commuting n-tuples of its elements (the
classification datum for invariant co-Higgs fields).

The algebra is solved in a basis adapted to two rays a, b of a maximal cone
(Klyachko 1990; Payne 2008).  Any two filtrations split together: the
greedy pieces of the cone {a, b} sum directly to Q^r (``bundles``).  With P
the pieces' rows as columns and w a piece's grid point (its levels on a and
b), A preserves every step of a and b iff B = P⁻¹AP maps each piece into the
pieces with w' ≥ w componentwise, so B's free entries (i, j) are read off
that order, with no elimination.  A step V of another ray becomes P⁻¹V,
from the integer D·P⁻¹ (``linalg._integer_inverse``), and adds the rows
f_i w_j at the free entries only, f vanishing on P⁻¹V and w in it; a step
spanned by unit vectors instead pins the entries (i ∉ V, j ∈ V) to 0.  The
kernel maps back as A = P B P⁻¹ through ``Subspace(...)``.  When every step
of a and b is spanned by unit vectors, as on a sum of line bundles, P is a
permutation and B = A: each coordinate's levels are read off the steps
(``bundles._coordinate_levels``, which ``check`` reads too), and the
algebra's rows are written directly (unit rows when nothing but pins
constrains), with no walk, annihilator, product or elimination.

The algebra is its canonical subspace of Q^(r²) (matrices vectorized
row-major), so an element's coordinates are its entries at the pivots; the
basis element A_a is the primitive integer row R_a over its pivot entry d_a.
One integer product table P_ab = R_a R_b at the pivots is computed per
algebra from the rows' supports: an entry (i, j) of R_a meets only the rows
R_b with a nonzero row j.  The table is sparse: each nonzero product is its
nonzero (k, P_ab[k]) pairs in ascending k, and a zero product is None.  The
nonzero differences P_ab - P_ba are listed once, and commutativity, the
sparse commutator forms (per row, the nonzero (column, value) pairs) and the
center all read that list.  The center is solved on the coordinates its
single-entry equations do not pin to 0.  The ``Mat``s and ``Fraction``s of
``basis`` and the forms are built on first use; reports are written from
the integers (``serialize``).

The algebra is handled as a linear solution space, not as its unit group:
invertibility is an open condition on top of the linear data and is reported,
never enforced.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import ge, mul

from .bundles import TVB, _coordinate_levels, _greedy_pieces, _unit_spanned
from .errors import InternalError
from .fans import Cone
# solve_linear and kernel are re-exported: the benchmark's trace wraps them here.
from .linalg import (  # noqa: F401
    Mat,
    Subspace,
    _integer_inverse,
    _kernel_of_rows,
    _product,
    annihilator,
    kernel,
    solve_linear,
)
from .records import Record

_ZERO = Fraction(0)

# A bilinear form on coordinate vectors: per row, its nonzero (column, value) pairs.
SparseForm = tuple[tuple[tuple[int, Fraction], ...], ...]


class FilteredEndAlgebra(Record):
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

    @cached_property
    def _scales(self) -> tuple[list[int], int, list[int]]:
        """The pivot entries d_a, their lcm L, and each L / d_a."""
        dens = [row[p] for row, p in zip(self.space.rows, self.space.pivots)]
        big = lcm(*dens)
        return dens, big, [big // e for e in dens]

    def combination(self, coords) -> list[int]:
        """L times the element with these coordinates: sum_b coords_b (L / d_b) R_b."""
        acc = [0] * self.space.ambient_dim
        for c, s, row in zip(coords, self._scales[2], self.space.rows):
            if c:
                f = c * s
                acc = [u + f * x if x else u for u, x in zip(acc, row)]
        return acc

    def element(self, coords, den: int = 1) -> Mat:
        """The algebra element sum_b coords_b A_b / den, its combination over den·L."""
        big, r = den * self._scales[1], self.bundle.r
        out = [Fraction(u, big) if u else _ZERO for u in self.combination(coords)]
        return Mat._trusted([out[i * r:(i + 1) * r] for i in range(r)], r)

    @cached_property
    def products(self) -> tuple[tuple[tuple[tuple[int, int], ...] | None, ...], ...]:
        """Entry (a, b) is R_a R_b at the pivots, as its nonzero (k, value) pairs
        in ascending k, or None when the product is zero.

        An entry x at (i, j) of R_a adds x times row j of R_b to row i of R_a R_b.
        The algebra is closed under products, so a product P outside the
        subspace, where L·P != sum_k P[p_k] (L / d_k) R_k, is an internal bug.
        """
        space, r, (_, big, scale) = self.space, self.bundle.r, self._scales
        coordinate = {p: k for k, p in enumerate(space.pivots)}
        support = [[(q, x) for q, x in enumerate(row) if x] for row in space.rows]
        meets = [[] for _ in range(r)]  # j -> (b, l, y) for each entry y = R_b[j][l] != 0
        for b, entries in enumerate(support):
            for q, y in entries:
                meets[q // r].append((b, q % r, y))
        table = []
        for entries in support:
            sums: dict[int, dict[int, int]] = {}
            for q, x in entries:
                base = q - q % r  # i·r for the entry at (i, j)
                for b, l, y in meets[q % r]:
                    prod = sums.setdefault(b, {})
                    prod[base + l] = prod.get(base + l, 0) + x * y
            line: list[tuple[tuple[int, int], ...] | None] = [None] * len(support)
            for b, prod in sums.items():
                coords = sorted((coordinate[q], c) for q, c in prod.items()
                                if c and q in coordinate)
                residue = {q: big * c for q, c in prod.items()}
                for k, c in coords:
                    c *= scale[k]
                    for q, x in support[k]:
                        residue[q] = residue.get(q, 0) - c * x
                if any(residue.values()):
                    raise InternalError("algebra basis is not closed under multiplication")
                line[b] = tuple(coords) or None
            table.append(tuple(line))
        return tuple(table)

    @cached_property
    def differences(self) -> tuple[tuple[int, int, int, int], ...]:
        """(a, b, k, P_ab[k] - P_ba[k]) for b < a and each nonzero difference."""
        p, out = self.products, []
        for a in range(self.dim):
            for b in range(a):
                if p[a][b] != p[b][a]:
                    diff = dict(p[a][b] or ())
                    for k, y in p[b][a] or ():
                        diff[k] = diff.get(k, 0) - y
                    out.extend((a, b, k, x) for k, x in sorted(diff.items()) if x)
        return tuple(out)

    @cached_property
    def commutator_forms(self) -> tuple[SparseForm, ...]:
        """The nonzero forms B_k with [x·A, y·A] = sum_k B_k(x, y) A_k, sparse.

        B_k[a][b] = (P_ab[k] - P_ba[k]) / (d_a d_b), with P the product table;
        row a of a form holds its nonzero (b, B_k[a][b]) in column order.
        """
        d, dens = self.dim, self._scales[0]
        forms: dict[int, list[list[tuple[int, Fraction]]]] = {}
        for a, b, k, diff in self.differences:  # a ascending, so columns ascend
            rows = forms.get(k)
            if rows is None:
                rows = forms[k] = [[] for _ in range(d)]
            f = Fraction(diff, dens[a] * dens[b])
            rows[a].append((b, f))
            rows[b].append((a, -f))
        return tuple(tuple(map(tuple, forms[k])) for k in sorted(forms))


def filtered_endos(v: TVB) -> FilteredEndAlgebra:
    """{A : A·V ⊆ V for every filtration step V}, solved in the basis adapted
    to the first two rays of the first maximal cone (module docstring).

    Compatibility is not required: any two filtrations split together.
    """
    cones = v.fan.max_cones
    pair = cones[0].ray_indices[:2] if cones else ()
    return FilteredEndAlgebra(v, _solve_adapted(v, pair, *_adapted_basis(v, pair)))


def _adapted_basis(v: TVB, pair: tuple[int, ...]) -> tuple[list, list | None]:
    """Per basis vector its levels on the rays of ``pair``, and the basis rows:
    None for the unit vectors when every step of those rays is spanned by
    unit vectors (``bundles._coordinate_levels``), otherwise the greedy
    pieces' rows."""
    levels = _coordinate_levels(v, pair)
    return (levels, None) if levels is not None else _piece_basis(v, pair)


def _piece_basis(v: TVB, pair: tuple[int, ...]) -> tuple[list, list]:
    """The greedy pieces' grid points and rows, one per basis vector of Q^r."""
    pieces = _greedy_pieces(v, Cone(pair))
    basis = [row for piece in pieces.values() for row in piece.rows]
    if len(basis) != v.r:
        raise InternalError("the pieces of two rays do not split the fiber")
    return [w for w, piece in pieces.items() for _ in piece.rows], basis


def _solve_adapted(v: TVB, pair: tuple[int, ...], levels, basis) -> Subspace:
    """The algebra in the basis P whose columns are ``basis`` (the unit vectors
    if None), its vectors at ``levels`` on the rays of ``pair``."""
    r, n = v.r, v.r * v.r
    if basis is not None:
        columns = list(zip(*_integer_inverse(basis)[1]))  # the rows of D·P⁻¹
    pinned, mixed = set(), []
    for sub in dict.fromkeys(
        sub for ray, filt in enumerate(v.filts) if ray not in pair
        for _, sub in filt.steps if 0 < sub.dim < r
    ):
        if basis is not None:  # P⁻¹V
            sub = Subspace(r, [[sum(map(mul, c, w)) for c in columns] for w in sub.rows])
        if _unit_spanned(sub):
            inside = set(sub.pivots)
            pinned.update(i * r + j for i in range(r) if i not in inside for j in inside)
        else:
            mixed.append(sub)
    free = [  # B's entries (i, j) with levels i ≥ levels j, ascending, less the pinned
        q for i, li in enumerate(levels) for j, lj in enumerate(levels)
        if all(map(ge, li, lj)) and (q := i * r + j) not in pinned
    ]
    rows = [
        row for sub in mixed for f in annihilator(sub).rows for w in sub.rows
        if any(row := [f[q // r] * w[q % r] for q in free])
    ]
    if basis is None and not rows:  # the unit rows of the free entries, faster than _lifted
        return Subspace._canonical(n, [[0] * q + [1] + [0] * (n - q - 1) for q in free], free)
    kern = _kernel_of_rows(rows, len(free)) if rows else Subspace.full(len(free))
    if basis is None:
        return _lifted(kern, free, n)
    pt = list(zip(*basis))  # D·A = P B (D·P⁻¹), vectorized row-major
    return Subspace(n, [
        [x for row in _product(pt, _product([b[i:i + r] for i in range(0, n, r)], columns, r, 0),
                               r, 0) for x in row]
        for b in _lifted(kern, free, n).rows
    ])


def _lifted(kern: Subspace, free: list[int], n: int) -> Subspace:
    """A canonical subspace on the coordinates ``free`` (ascending) of Q^n, put
    back in Q^n with zeros elsewhere, where its rows stay canonical."""
    rows = [list(map(dict(zip(free, y)).get, range(n), (0,) * n)) for y in kern.rows]
    return Subspace._canonical(n, rows, [free[p] for p in kern.pivots])


def is_commutative(alg: FilteredEndAlgebra) -> bool:
    return not alg.differences


def center(alg: FilteredEndAlgebra) -> Subspace:
    """{Z in the algebra : [Z, A] = 0 for every basis element A}, as its
    canonical subspace of algebra coordinates; row y with pivot p is the
    element y / y[p] (``FilteredEndAlgebra.element``).

    Coordinates x with sum_b B_k[a][b] x_b = 0 for all k, a: row (k, a) times
    d_a·L, L the lcm of the pivot entries, is (P_ab[k] - P_ba[k])·L/d_b over b,
    kept as sorted (b, value) pairs.  A row with one entry pins its coordinate
    to 0.  The other rows, on the unpinned coordinates, are made primitive
    with a positive leading entry, so a repeated row counts once, and solved;
    zero columns put back into that canonical kernel give the canonical
    kernel of the whole system.
    """
    d, scale = alg.dim, alg._scales[2]
    eqs: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for a, b, k, diff in alg.differences:  # (k, a) gets b < a, then b > a: sorted
        eqs.setdefault((k, a), []).append((b, diff * scale[b]))
        eqs.setdefault((k, b), []).append((a, -diff * scale[a]))
    pinned = {eq[0][0] for eq in eqs.values() if len(eq) == 1}
    rows: dict[tuple[tuple[int, int], ...], None] = {}
    for eq in eqs.values():
        eq = [(b, v) for b, v in eq if b not in pinned] if len(eq) > 1 else []
        if eq:
            g = gcd(*(v for _, v in eq)) if eq[0][1] > 0 else -gcd(*(v for _, v in eq))
            rows[tuple((b, v // g) for b, v in eq)] = None
    free, zero = [b for b in range(d) if b not in pinned], (0,) * d
    system = [list(map(dict(eq).get, free, zero)) for eq in rows]
    return _lifted(_kernel_of_rows(system, len(free)) if system else Subspace.full(len(free)),
                   free, d)


def structure_constants(alg: FilteredEndAlgebra) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
    """Tensor c with A_a · A_b = sum_k c[a][b][k] A_k: c[a][b][k] = P_ab[k] / (d_a d_b)."""
    dens = alg._scales[0]

    def dense(prod, den: int) -> tuple[Fraction, ...]:
        out = [_ZERO] * alg.dim
        for k, e in prod or ():
            out[k] = Fraction(e, den)
        return tuple(out)

    return tuple(
        tuple(dense(prod, da * db) for prod, db in zip(line, dens))
        for line, da in zip(alg.products, dens)
    )


class TupleVarietyEqs(Record):
    """Bilinear equations cutting out commuting n-tuples of algebra elements.

    For coordinate vectors x, y of two tuple entries, the commutator expands
    as [x·A, y·A] = sum_d B_d(x, y) A_d; the same forms B_d apply to every
    pair of tuple slots 1 <= j < k <= n.  Identically zero forms are dropped,
    so a commutative algebra yields no equations and the commuting tuples are
    the full n·dim-parameter affine space.
    """

    n: int
    dim: int
    algebra: FilteredEndAlgebra

    @property
    def forms(self) -> tuple[SparseForm, ...]:
        """Each dim x dim, one per surviving basis index; none when n <= 1."""
        return self.algebra.commutator_forms if self.n > 1 else ()

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (j, k) for j in range(1, self.n + 1) for k in range(j + 1, self.n + 1)
        )


def tuple_variety_equations(alg: FilteredEndAlgebra, n: int) -> TupleVarietyEqs:
    """Equations for n-tuples of pairwise-commuting algebra elements."""
    if n < 0:
        raise ValueError("tuple length must be >= 0")
    return TupleVarietyEqs(n, alg.dim, alg)
