"""Slow reference paths shared by the test modules.

Each function here is an independent, plainly written version of something
the library computes faster, or a matrix operation that only the tests need.
They live in one module so that no ``test_*`` module imports another:

- dense ``Fraction`` matrix arithmetic over ``Mat.rows`` (products, sums,
  negation, transpose, matrix-vector products and commutators), with no
  zero skipping and no integer forms;
- the ``Fraction`` Gauss-Jordan that integer elimination replaced;
- the strict checks of a normalized filtration, which the constructor once
  made on its input before it normalized raw steps itself, and the value of
  raw steps at a level, read off the unsorted list;
- the grading walk of the whole threshold grid in a sorted order;
- the endomorphism algebra as the kernel of every step's constraint rows in
  all r² unknowns (``solve_mat_constraints``), which the solve in the
  adapted basis of two rays replaced; the algebra's coordinates and
  commutator forms from direct commutators, and the sparse forms evaluated
  on coordinate vectors;
- a subspace's report rows through its ``Fraction`` basis and ``rat_str``,
  and a classification report through the report's ``Mat`` accessors
  (``mat_to_obj``) and its ``Fraction`` forms: the renderers that writing
  from the integer rows and the difference list replaced;
- the face check of a fan by extreme-ray enumeration: two maximal cones must
  meet in the cone on their shared rays (Cox-Little-Schenck, *Toric
  Varieties*, Lemma 1.2.13).  The library does not check this yet;
- the chart commutation of a field on every maximal cone, which one cone's
  charts replaced;
- the Chern numbers of a grading by localization at the torus-fixed points,
  an oracle for the characters that needs no walk.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from toric_cohiggs import direct_sum, line_bundle
from toric_cohiggs.cohiggs import IntegrabilityVerdict, _integer_charts
from toric_cohiggs.fans import dual_basis, pairing
from toric_cohiggs.serialize import chern_to_obj, mat_to_obj
from toric_cohiggs.linalg import (
    Mat,
    Subspace,
    _integer_commute,
    _kernel_of_rows,
    annihilator,
    complement_within,
    intersect,
    kernel,
    rat_str,
    solve_linear,
    subspace_sum,
)

_ZERO = Fraction(0)


# --------------------------------------------------------------------------
# dense matrix arithmetic

def only_fractions(rows) -> bool:
    """A tuple of tuples of exact ``Fraction`` entries (no ints, no lists)."""
    return isinstance(rows, tuple) and all(
        isinstance(r, tuple) and all(type(a) is Fraction for a in r) for r in rows
    )


def mat_mul(a: Mat, b: Mat) -> Mat:
    """a b as dense sums over every index."""
    assert a.ncols == b.nrows, "shape mismatch"
    cols = list(zip(*b.rows)) if b.rows else [()] * b.ncols
    return Mat([[sum((x * y for x, y in zip(row, col)), _ZERO) for col in cols] for row in a.rows],
               ncols=b.ncols)


def mat_sub(a: Mat, b: Mat) -> Mat:
    assert (a.nrows, a.ncols) == (b.nrows, b.ncols), "shape mismatch"
    return Mat([[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)], ncols=a.ncols)


def mat_neg(a: Mat) -> Mat:
    return Mat([[-x for x in r] for r in a.rows], ncols=a.ncols)


def transpose(a: Mat) -> Mat:
    return Mat(list(zip(*a.rows)) if a.rows else [()] * a.ncols, ncols=a.nrows)


def mul_vec(a: Mat, v) -> tuple[Fraction, ...]:
    """a v for a vector of ints or Fractions."""
    assert len(v) == a.ncols, "shape mismatch"
    return tuple(sum((x * Fraction(y) for x, y in zip(row, v)), _ZERO) for row in a.rows)


def commutator(a: Mat, b: Mat) -> Mat:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


# --------------------------------------------------------------------------
# rendering

def subspace_text(s: Subspace) -> list[list[str]]:
    """The report rows of s: each entry of its reduced basis over Q, as text."""
    return [[rat_str(a) for a in row] for row in s.basis]


def ref_tuple_eqs_obj(eqs) -> dict:
    """The tuple equations with each sparse ``Fraction`` form made dense text."""
    forms = []
    for form in eqs.forms:
        rows = [["0"] * eqs.dim for _ in range(eqs.dim)]
        for a, row in enumerate(form):
            for b, value in row:
                rows[a][b] = rat_str(value)
        forms.append(rows)
    return {
        "n": eqs.n,
        "dim": eqs.dim,
        "pairs": [list(p) for p in eqs.pairs],
        "forms": forms,
        "forms_note": "the same bilinear forms apply to every slot pair",
    }


def ref_classification_obj(report) -> dict:
    """``serialize.classification_to_obj`` as it was written from the report's
    ``Mat`` accessors: the basis, the center and the generators through
    ``mat_to_obj``, and the forms through ``rat_str``."""
    out = {
        "rank": report.rank,
        "n": report.n,
        "compatible": report.bundle_status == "compatible",
        "bundle_status": report.bundle_status,
        "dim_h": report.dim_h,
        "basis": [mat_to_obj(m) for m in report.basis],
        "commutative": report.commutative,
        "center": [mat_to_obj(m) for m in report.center_basis],
        "center_dim": len(report.center_basis),
        "notes": list(report.notes),
        "warnings": list(report.warnings),
    }
    if report.bundle_certificate is not None:
        out["certificate"] = report.bundle_certificate
    if report.parameters is not None:
        out["parameters"] = report.parameters
    if report.generators is not None:
        out["generators"] = [[mat_to_obj(m) for m in gen] for gen in report.generators]
    if report.tuple_equations is not None:
        out["tuple_equations"] = ref_tuple_eqs_obj(report.tuple_equations)
    if report.chern is not None:
        out["chern"] = chern_to_obj(report.chern)
    return out


# --------------------------------------------------------------------------
# elimination

def reference_rref_rows(rows):
    """Fraction Gauss-Jordan on a copy; returns (all rows incl. zero rows, pivot columns)."""
    m = [[Fraction(a) for a in r] for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
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


# --------------------------------------------------------------------------
# filtrations

def assert_normalized(f) -> None:
    """The stored steps of a filtration are in canonical form."""
    steps = f.steps
    assert steps, "a filtration needs at least one step"
    for j, v in steps:
        assert type(j) is int, f"threshold {j!r} is not an int"
        assert v.ambient_dim == f.r, "step subspace in the wrong ambient dimension"
    for (j0, v0), (j1, v1) in zip(steps, steps[1:]):
        assert j1 > j0, "thresholds must be strictly increasing"
        assert v0.contains(v1) and v0 != v1, "step subspaces must be strictly decreasing"
    assert steps[-1][1].is_zero(), "the last step subspace must be zero"
    assert f.r == 0 or not steps[0][1].is_full(), "the first step subspace must be proper"


def raw_reading(r: int, raw, i: int) -> Subspace:
    """The value at level i of consistent raw (threshold, subspace) steps.

    The subspace of the largest threshold below i, the full space below every
    threshold, and zero more than one level past the last threshold.
    """
    below = [(j, v) for j, v in raw if j < i]
    if not below:
        return fresh_full(r)
    if i > max(j for j, _ in raw) + 1:
        return Subspace(r, [])
    return max(below, key=lambda p: p[0])[1]


# --------------------------------------------------------------------------
# the grading walk of the whole threshold grid

def fresh_full(r):
    return Subspace(r, [[int(i == j) for j in range(r)] for i in range(r)])


def value_at(filt, i):
    below = sum(1 for j in filt.thresholds if j < i)
    return fresh_full(filt.r) if below == 0 else filt.steps[below - 1][1]


def pairwise_sum(subspaces, r):
    out = Subspace.zero(r)
    for s in subspaces:
        out = subspace_sum(out, s)
    return out


class Values:
    """F(levels) = ∩_k F_k(levels_k), memoized by prefix."""

    def __init__(self, filts, r):
        self.filts = filts
        self.cache = {(): fresh_full(r)}

    def __call__(self, levels):
        if levels not in self.cache:
            k = len(levels) - 1
            self.cache[levels] = intersect(self(levels[:-1]), value_at(self.filts[k], levels[k]))
        return self.cache[levels]


def sum_above(value, levels, r):
    bumped = (levels[:k] + (lv + 1,) + levels[k + 1:] for k, lv in enumerate(levels))
    return pairwise_sum((value(b) for b in bumped), r)


def reference_pieces(filts, r, key=lambda lv: (sum(lv), lv)):
    """Greedy pieces from a walk of the grid in descending ``key`` order."""
    value = Values(filts, r)
    axes = [[f.thresholds[0] - 1, *f.thresholds] for f in filts]
    points = sorted(itertools.product(*axes), key=key, reverse=True)
    pieces = {}
    for levels in points:
        here = value(levels)
        if here.is_zero():
            continue
        above = sum_above(value, levels, r)
        if above != here:
            pieces[levels] = complement_within(above, here)
    return pieces


# --------------------------------------------------------------------------
# endomorphism algebras

def line_sum(fan, twists):
    v = line_bundle(fan, twists[0])
    for t in twists[1:]:
        v = direct_sum(v, line_bundle(fan, t))
    return v


def solve_mat_constraints(subspaces, r: int) -> Subspace:
    """The subspace of Q^(r²) of matrices A, vectorized row-major, with
    A·V ⊆ V for every V.

    A·V ⊆ V iff every functional f vanishing on V kills A·w for every basis
    row w of V; the coefficient of A[i][j] in f·(A w) is f_i w_j.  Each V
    contributes those conditions from one annihilator, and the result is the
    kernel of the stacked conditions, in canonical form.
    """
    rows = []
    for v in subspaces:
        if v.ambient_dim != r:
            raise ValueError("constraint dimension mismatch")
        ann = annihilator(v).rows
        for w in v.rows:
            for f in ann:
                rows.append([fi * wj for fi in f for wj in w])
    return _kernel_of_rows(rows, r * r)


def reference_filtered_endos(v) -> Subspace:
    """The algebra of ``filtered_endos`` from every distinct proper step of every ray."""
    steps = dict.fromkeys(
        sub for filt in v.filts for _, sub in filt.steps if 0 < sub.dim < v.r
    )
    return solve_mat_constraints(steps, v.r)


def ref_coords(alg, target):
    """The coordinates of ``target`` in the algebra's basis, by one linear solve."""
    cols = transpose(Mat([b.vectorize() for b in alg.basis], ncols=alg.bundle.r ** 2))
    coords = solve_linear(cols, target.vectorize())
    assert coords is not None, "element outside the algebra"
    return coords


def ref_forms(alg):
    """The nonzero commutator forms, dense, from the coordinates of each [A_a, A_b]."""
    d = alg.dim
    zero = (0,) * d
    comm = [[zero] * d for _ in range(d)]
    for a in range(d):
        for b in range(a + 1, d):
            coords = ref_coords(alg, commutator(alg.basis[a], alg.basis[b]))
            comm[a][b], comm[b][a] = coords, tuple(-x for x in coords)
    forms = [
        Mat([[comm[a][b][k] for b in range(d)] for a in range(d)], ncols=d)
        for k in range(d)
    ]
    return tuple(f for f in forms if not f.is_zero())


def form_values(forms, x, y) -> tuple[Fraction, ...]:
    """B_k(x, y) for each sparse form (per row, its nonzero (column, value) pairs)."""
    return tuple(
        sum((x[a] * value * y[b] for a, row in enumerate(form) for b, value in row), _ZERO)
        for form in forms
    )


# --------------------------------------------------------------------------
# the face check of a fan

def face_failure(fan) -> str | None:
    """None if every two maximal cones meet in the cone on their shared rays,
    else the reason for the first pair that does not.  The fan must pass
    ``validate_fan`` (the dual bases are read off its cones)."""
    for a, b in itertools.combinations(range(len(fan.max_cones)), 2):
        reason = _pair_face_failure(fan, fan.max_cones[a], fan.max_cones[b])
        if reason is not None:
            return f"cones {a} and {b} {reason}"
    return None


def _pair_face_failure(fan, sigma, tau) -> str | None:
    """None if sigma ∩ tau is exactly the cone on their shared rays.

    In the coordinates y of sigma (x = R_sigma y, y >= 0) the intersection is
    {y >= 0, B y >= 0} with B = U_tau R_sigma; the test asks that every
    extreme ray of that cone is supported on the shared ray indices.
    """
    n = fan.n
    shared = set(sigma.ray_indices) & set(tau.ray_indices)
    r_sigma_cols = [fan.rays[i] for i in sigma.ray_indices]
    b = [[pairing(u, col) for col in r_sigma_cols] for u in dual_basis(fan, tau)]
    ineqs = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    ineqs += [[Fraction(x) for x in row] for row in b]
    free_positions = [k for k, idx in enumerate(sigma.ray_indices) if idx not in shared]
    for ray in extreme_rays(ineqs, n):
        for k in free_positions:
            if ray[k] != 0:
                return (
                    "overlap beyond their common face "
                    f"(interior direction through ray index {sigma.ray_indices[k]})"
                )
    return None


def extreme_rays(ineqs, n: int) -> list[tuple[Fraction, ...]]:
    """Extreme rays of the pointed cone {y : A y >= 0} with A the given rows.

    Brute force over (n-1)-subsets of rows: a candidate direction is a
    one-dimensional kernel of the chosen tight rows that satisfies all
    inequalities.  Exponential in n, and adequate for the small cones here.
    """
    if n == 0:
        return []
    if n == 1:
        candidates = [(Fraction(1),), (Fraction(-1),)]
        return [c for c in candidates if all(row[0] * c[0] >= 0 for row in ineqs)]
    rays: set[tuple[Fraction, ...]] = set()
    for subset in itertools.combinations(range(len(ineqs)), n - 1):
        ker = kernel(Mat([ineqs[i] for i in subset], ncols=n))
        if ker.dim != 1:
            continue
        v = ker.basis[0]
        for cand in (v, tuple(-a for a in v)):
            if all(sum(r * c for r, c in zip(row, cand)) >= 0 for row in ineqs):
                rays.add(normalize_ray(cand))
    return sorted(rays)


def normalize_ray(v: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    lead = next(a for a in v if a != 0)
    return tuple(a / abs(lead) for a in v)


# --------------------------------------------------------------------------
# co-Higgs fields

def all_cones_integrability(field) -> IntegrabilityVerdict:
    """Commute the integer chart matrices of every maximal cone, in fan order."""
    for idx, sigma in enumerate(field.bundle.fan.max_cones):
        _, _, charts = _integer_charts(field, sigma)
        for k in range(len(charts)):
            for l in range(k + 1, len(charts)):
                if not _integer_commute(charts[k], charts[l]):
                    return IntegrabilityVerdict(False, (idx, k, l))
    return IntegrabilityVerdict(True)


# --------------------------------------------------------------------------
# Chern numbers by localization

def localized_chern_numbers(fan, gradings, t) -> tuple[Fraction, ...]:
    """(∫ c_1^n, ∫ c_2 c_1^(n-2), ..., ∫ c_n) of a bundle on a complete smooth
    fan, from its characters at each maximal cone, by localization.

    ∫_X f(c^T(E)) = Σ_σ f(w_σ(t)) / Π_k ⟨u^σ_k, t⟩ for a symmetric polynomial
    f of degree n: w_σ(t) are the characters of the grading at σ, with
    multiplicity, paired with the point t, and u^σ is the dual basis
    (Atiyah-Bott 1984, Berline-Vergne 1982; Brion 1997; Payne 2006).  The
    sum is an integer that does not depend on the generic point t.
    ``gradings`` holds, per maximal cone in fan order, its (character,
    multiplicity) pairs; t must pair to nonzero with every dual basis vector.
    """
    n = fan.n
    totals = [Fraction(0)] * n
    for sigma, classes in zip(fan.max_cones, gradings):
        # e_0..e_n of the weights: the coefficients of Π (1 + w z), cut at z^n
        e = [Fraction(1)] + [Fraction(0)] * n
        for u, mult in classes:
            w = pairing(u, t)
            for _ in range(mult):
                for k in range(n, 0, -1):
                    e[k] += w * e[k - 1]
        den = 1
        for u in dual_basis(fan, sigma):
            den *= pairing(u, t)
        for k in range(1, n + 1):
            totals[k - 1] += e[k] * e[1] ** (n - k) / den
    return tuple(totals)
