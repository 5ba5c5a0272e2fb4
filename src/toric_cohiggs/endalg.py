"""The algebra of filtration-preserving endomorphisms of a bundle's fiber.

A matrix A is a filtered endomorphism when A·E(i) ⊆ E(i) for every ray
filtration value E(i); these form a unital associative matrix algebra.  The
module computes a canonical basis of that algebra, its center and structure
constants, and the bilinear equations cutting out commuting n-tuples of its
elements (the classification datum for invariant co-Higgs fields).

The basis is a reduced row echelon basis in Q^(r²), so an element's
coordinates are its entries at the basis pivots.  Each algebra computes its
structure tensor once; commutativity, the center and the tuple equations all
derive from its antisymmetrised forms.

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
    kernel,
    solve_linear,
    solve_mat_constraints,
)


@dataclass(frozen=True)
class FilteredEndAlgebra:
    """Canonical basis of {A : A preserves every filtration step subspace}."""

    bundle: TVB
    basis: tuple[Mat, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def element(self, coords) -> Mat:
        """The algebra element with the given coordinates in the basis."""
        out = Mat.zero(self.bundle.r, self.bundle.r)
        for c, a in zip(coords, self.basis):
            if c:
                out = out + a.scale(c)
        return out

    @cached_property
    def structure(self) -> "StructureConstants":
        """The structure tensor, computed once and shared by every derived datum."""
        return structure_constants(self)

    @cached_property
    def commutator_forms(self) -> tuple[Mat, ...]:
        """The nonzero forms B_k with [x·A, y·A] = sum_k B_k(x, y) A_k.

        B_k[a][b] = c[a][b][k] - c[b][a][k], from the structure tensor.
        """
        c, d = self.structure.c, self.dim
        forms = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
        for a in range(d):
            for b in range(a):
                if c[a][b] != c[b][a]:
                    for k, (x, y) in enumerate(zip(c[a][b], c[b][a])):
                        forms[k][a][b], forms[k][b][a] = x - y, y - x
        return tuple(Mat._trusted(f, d) for f in forms if any(map(any, f)))


def filtered_endos(v: TVB) -> FilteredEndAlgebra:
    """Solve the membership constraints A·w ∈ V over all filtration steps.

    Step subspaces repeated across rays contribute their constraints once.
    Compatibility of the bundle is not required; the constraint system is
    meaningful for arbitrary filtration data.
    """
    constraints = []
    seen = set()
    for filt in v.filts:
        for _, sub in filt.steps:
            if sub.dim in (0, v.r):
                continue  # zero and full spaces constrain nothing
            if sub in seen:
                continue
            seen.add(sub)
            for w in sub.rows:
                constraints.append((w, sub))
    basis = solve_mat_constraints(constraints, v.r)
    return FilteredEndAlgebra(v, tuple(basis))


def is_commutative(alg: FilteredEndAlgebra) -> bool:
    c = alg.structure.c
    return all(c[a][b] == c[b][a] for a in range(alg.dim) for b in range(a))


def center(alg: FilteredEndAlgebra) -> list[Mat]:
    """Basis of {Z in the algebra : [Z, A] = 0 for every basis element A}."""
    d = alg.dim
    # coordinates x with sum_b x_b [A_a, A_b] = 0 for all a: B_k(e_a, x) = 0
    rows = [row for form in alg.commutator_forms for row in form.rows if any(row)]
    coords = kernel(Mat._trusted(rows, d)) if rows else Subspace.full(d)
    return [alg.element(x) for x in coords.basis]


@dataclass(frozen=True)
class StructureConstants:
    """Tensor c with A_a · A_b = sum_d c[a][b][d] A_d in the algebra basis."""

    c: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def product_coords(self, a: int, b: int) -> tuple[Fraction, ...]:
        return self.c[a][b]


def structure_constants(alg: FilteredEndAlgebra) -> StructureConstants:
    """Exact coefficients of every basis product; fails if not closed.

    The basis is in reduced row echelon form as vectors of Q^(r²), so the
    coordinates of a product are its entries at the basis pivots.  Rebuilding
    each product from them checks closure: filtered endomorphism algebras are
    multiplicatively closed, so a violation signals an internal bug.
    """
    vecs = [a.vectorize() for a in alg.basis]
    pivots = [next(i for i, x in enumerate(v) if x) for v in vecs]
    supports = [[(i, x) for i, x in enumerate(v) if x] for v in vecs]
    tensor = []
    for a in alg.basis:
        row = []
        for b in alg.basis:
            rest = list((a @ b).vectorize())
            coords = tuple(rest[p] for p in pivots)
            for c, support in zip(coords, supports):
                if c:
                    for i, x in support:
                        rest[i] -= c * x
            if any(rest):
                raise InternalError("algebra basis is not closed under multiplication")
            row.append(coords)
        tensor.append(tuple(row))
    return StructureConstants(tuple(tensor))


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
