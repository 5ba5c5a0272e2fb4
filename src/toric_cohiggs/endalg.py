"""The algebra of filtration-preserving endomorphisms of a bundle's fiber.

A matrix A is a filtered endomorphism when A·E(i) ⊆ E(i) for every ray
filtration value E(i); these form a unital associative matrix algebra.  The
module computes that algebra, its center and structure constants, and the
bilinear equations cutting out commuting n-tuples of its elements (the
classification datum for invariant co-Higgs fields).

The algebra is its canonical subspace of Q^(r²) (matrices vectorized
row-major), so an element's coordinates are its entries at the pivots.  Each
algebra computes its structure tensor once, by one sparse integer product per
pair of the subspace's primitive rows; commutativity, the center and the
tuple equations all derive from its antisymmetrised forms.

The algebra is handled as a linear solution space, not as its unit group:
invertibility is an open condition on top of the linear data and is reported,
never enforced.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .bundles import TVB
from .errors import InternalError
# solve_linear is re-exported: the benchmark's trace wraps endalg.solve_linear.
from .linalg import (  # noqa: F401
    Mat,
    Subspace,
    _product,
    kernel,
    solve_linear,
    solve_mat_constraints,
)

_ZERO = Fraction(0)


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
        out = Mat.zero(self.bundle.r, self.bundle.r)
        for c, a in zip(coords, self.basis):
            if c:
                out = out + a.scale(c)
        return out

    @cached_property
    def structure(self) -> tuple:
        """The structure tensor, computed once and shared by every derived datum."""
        return structure_constants(self)

    @cached_property
    def commutator_forms(self) -> tuple[Mat, ...]:
        """The nonzero forms B_k with [x·A, y·A] = sum_k B_k(x, y) A_k.

        B_k[a][b] = c[a][b][k] - c[b][a][k], from the structure tensor.
        """
        c, d = self.structure, self.dim
        forms = [[[_ZERO] * d for _ in range(d)] for _ in range(d)]
        for a in range(d):
            for b in range(a):
                if c[a][b] != c[b][a]:
                    for k, (x, y) in enumerate(zip(c[a][b], c[b][a])):
                        forms[k][a][b], forms[k][b][a] = x - y, y - x
        return tuple(Mat._trusted(f, d) for f in forms if any(map(any, f)))


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
    """Basis of {Z in the algebra : [Z, A] = 0 for every basis element A}."""
    d = alg.dim
    # coordinates x with sum_b x_b [A_a, A_b] = 0 for all a: B_k(e_a, x) = 0
    rows = [row for form in alg.commutator_forms for row in form.rows if any(row)]
    coords = kernel(Mat._trusted(rows, d)) if rows else Subspace.full(d)
    return [alg.element(x) for x in coords.basis]


def structure_constants(alg: FilteredEndAlgebra) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
    """Tensor c with A_a · A_b = sum_k c[a][b][k] A_k; fails if not closed.

    The basis element A_a is the subspace's primitive integer row R_a divided
    by its pivot entry d_a, so A_a · A_b = R_a R_b / (d_a d_b), and its
    coordinates are the entries of R_a R_b at the pivots p_k divided by
    d_a d_b.  Filtered endomorphism algebras are multiplicatively closed, so
    an integer product outside the subspace signals an internal bug.
    """
    space, r = alg.space, alg.bundle.r
    mats = [[row[i * r:(i + 1) * r] for i in range(r)] for row in space.rows]
    dens = [row[p] for row, p in zip(space.rows, space.pivots)]
    tensor = []
    for x, dx in zip(mats, dens):
        row = []
        for y, dy in zip(mats, dens):
            prod = [e for prow in _product(x, y, r, 0) for e in prow]
            if not space.contains_vector(prod):
                raise InternalError("algebra basis is not closed under multiplication")
            den = dx * dy
            row.append(tuple(Fraction(prod[p], den) if prod[p] else _ZERO for p in space.pivots))
        tensor.append(tuple(row))
    return tuple(tensor)


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
    forms: tuple[Mat, ...]  # each dim x dim, one per surviving basis index

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (j, k) for j in range(1, self.n + 1) for k in range(j + 1, self.n + 1)
        )

    def evaluate(self, x, y) -> tuple[Fraction, ...]:
        """Values B_d(x, y) for one slot pair."""
        out = []
        for form in self.forms:
            val = sum(
                xi * form.entry(i, j) * yj
                for i, xi in enumerate(x)
                for j, yj in enumerate(y)
                if xi and yj
            )
            out.append(Fraction(val))
        return tuple(out)

    def satisfied_by(self, coord_tuples) -> bool:
        """True iff every slot pair evaluates to zero on the coordinates."""
        vecs = list(coord_tuples)
        for i in range(len(vecs)):
            for j in range(i + 1, len(vecs)):
                if any(val != 0 for val in self.evaluate(vecs[i], vecs[j])):
                    return False
        return True


def tuple_variety_equations(alg: FilteredEndAlgebra, n: int) -> TupleVarietyEqs:
    """Equations for n-tuples of pairwise-commuting algebra elements."""
    if n < 1:
        raise ValueError("tuple length must be >= 1")
    d = alg.dim
    if n == 1 or d == 0:
        return TupleVarietyEqs(n, d, ())
    return TupleVarietyEqs(n, d, alg.commutator_forms)
