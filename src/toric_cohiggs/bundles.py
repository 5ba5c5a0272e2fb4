"""Toric vector bundles as per-ray decreasing subspace filtrations.

A bundle of rank r on a fan is one decreasing, exhaustive and separated
Z-indexed filtration of Q^r per ray, encoded as (threshold, subspace) steps:
the subspace attached to threshold j is the filtration value on the interval
(j, next threshold], the full space is implicit below the first threshold and
the last subspace is zero.

The compatibility check asks, cone by cone, for a character grading of Q^r
that simultaneously reconstructs the filtrations of all the cone's rays
(Klyachko 1990; Payne 2008).  It is decided by one walk over the support
of F in the threshold grid and an integer count, complete at every rank; a
cone whose steps are all coordinate subspaces is read off its steps.

Definitions.  For a cone with rays 1..n, a grid point u has u_k a threshold
of filt_k.  F(u) = ∩_k filt_k(u_k), and F_+(u) = Σ_k F(u + e_k) (a level one
past the last threshold gives zero).  The forced multiplicity is
m(u) = dim F(u) - dim F_+(u), and the greedy piece is
E_u = complement_within(F_+(u), F(u)), of dimension m(u); it depends on u
alone, not on the order in which the grid is walked.

Lemma.  For every input, Σ_{v≥u} E_v = F(u) at every grid point u.  By
induction down the grid: F(u + e_k) is F at the grid point that raises u_k
to the next threshold of filt_k, or zero past the last one, and every grid
point v > u lies above one of these, so Σ_{v>u} E_v = F_+(u) by induction;
then F(u) = F_+(u) ⊕ E_u.  At the minimum point F is Q^r, so the pieces
span Q^r, Σ m ≥ r, and the sum of the pieces is direct iff Σ m = r.

Decision.  A cone is compatible iff Σ m = r.  For a ray k and a level i,
let w be the grid point with w_k the least threshold of filt_k that is
≥ i and every other coordinate a first threshold: F(w) = filt_k(i), and
the grid points v ≥ w are those with v_k ≥ i, so by the lemma the pieces
with u_k ≥ i span filt_k(i), for every input (past the last threshold both
are zero).  If Σ m = r the sum is direct, so the pieces, each at its
character, form a grading that rebuilds every ray filtration of the cone.
Conversely, an adapted grading Q^r = ⊕ V_u vanishes off the grid (at a
level l that is not a threshold, filt_k(l) = filt_k(l + 1)) and has
F(u) = ⊕_{v≥u} V_v, so dim V_u = m(u) and Σ m = r.  Hence the greedy
grading is complete at every rank, the traversal order cannot matter, the
per-ray counts Σ_{u_k≥i} m(u) = dim filt_k(i) hold whenever Σ m = r, no
search over subsets of the support is ever needed, and the certificate of
an incompatible cone is Σ m alone.

Walk.  At the first threshold of filt_k the level gives the whole space, so
F(u) depends only on the face key of u: the pairs (ray, u_k) with u_k above
the first threshold of its ray, in ray order.  One table per bundle holds F
by face key (``TVB._value``), so cones sharing a face share its values, and
F(key) = F(key without its last pair) ∩ filt_ray(level).  The walk descends
ray by ray and, along each axis, stops at the first level where F of the
prefix is zero: F only shrinks as a level rises, and a point with F = 0
holds no piece (E_u ⊆ F(u)).  So it skips no piece on any cone, compatible
or not, and the pieces, Σ m and the certificates are the full grid's.

Coordinate cones.  When every step of every ray of a cone is spanned by unit
vectors (a split bundle in its own basis, every rank-1 bundle), the pieces
are read off the steps with no value table and no elimination.  Let lev_k(q)
be the threshold of filt_k just past the steps that contain e_q.  At a
threshold t, filt_k(t) is the step before t, so e_q ∈ filt_k(t) iff
t ≤ lev_k(q), and filt_k(t) is the span of those e_q.  An intersection of
coordinate subspaces is the span of the common unit vectors, so
F(u) = span{e_q : lev(q) ≥ u}, and F_+(u) = span{e_q : lev(q) ≥ u,
lev(q) ≠ u}.  ``complement_within`` keeps F(u)'s canonical rows, here unit
vectors, whose pivots F_+(u) lacks: E_u = span{e_q : lev(q) = u}.  So
Σ m = r, such a cone is always compatible, and its pieces are the walk's.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from operator import itemgetter, mul
from typing import Mapping

from .fans import Character, Cone, Fan, as_int, dual_basis
from .linalg import (
    Subspace,
    complement_within,
    intersect,
    subspace_sum,
)
from .records import Record

# No rank cutoff: every verdict is decided.  The benchmark's run record reads it.
DEFAULT_ORACLE_LIMIT = None


class Filtration(Record):
    """Decreasing filtration of Q^r, stored in canonical form.

    The constructor takes raw (threshold, subspace) pairs, as ``Subspace``
    takes raw vectors.  It sorts them by threshold, rejects non-monotone
    data, drops steps whose subspace is the full space (implicit below the
    first threshold), merges equal consecutive subspaces keeping the earliest
    threshold, and appends the zero subspace one past the last raw threshold
    when it is missing.  So the stored thresholds strictly increase, the stored
    subspaces strictly decrease from a proper first one to zero, and building
    a filtration from its own steps gives it back.
    """

    r: int
    steps: tuple[tuple[int, Subspace], ...]

    def __post_init__(self):
        r = self.r
        steps = sorted(((as_int(j, "threshold"), v) for j, v in self.steps), key=itemgetter(0))
        if not steps:
            raise ValueError("a filtration needs at least one step")
        for (j0, v0), (j1, v1) in zip(steps, steps[1:]):
            if j0 == j1 and v0 != v1:
                raise ValueError(f"two different subspaces at threshold {j0}")
            if not v0.contains(v1):
                raise ValueError("subspaces are not decreasing along thresholds")
        cleaned: list[tuple[int, Subspace]] = []
        for j, v in steps:
            if v.ambient_dim != r:
                raise ValueError("step subspace in the wrong ambient dimension")
            # the full space is implicit, unless it is also zero (r = 0)
            if not (r and v.is_full()) and not (cleaned and cleaned[-1][1] == v):
                cleaned.append((j, v))
        if not cleaned or not cleaned[-1][1].is_zero():
            cleaned.append((steps[-1][0] + 1, Subspace.zero(r)))
        object.__setattr__(self, "steps", tuple(cleaned))

    @cached_property
    def thresholds(self) -> tuple[int, ...]:
        return tuple(j for j, _ in self.steps)

    def at(self, i: int) -> Subspace:
        """Filtration value at integer level i."""
        k = bisect_left(self.thresholds, i)  # number of thresholds < i
        if k == 0:
            return Subspace.full(self.r)
        return self.steps[k - 1][1]

    def shifted(self, delta: int) -> "Filtration":
        return Filtration(self.r, tuple((j + delta, v) for j, v in self.steps))


class TVB(Record):
    """A toric vector bundle: rank r plus one filtration per fan ray."""

    fan: Fan
    r: int
    filts: tuple[Filtration, ...]

    def __post_init__(self):
        # face key -> F, shared by every cone containing the face; see _value
        object.__setattr__(self, "_values", {})
        object.__setattr__(self, "r", as_int(self.r, "rank"))
        object.__setattr__(self, "filts", tuple(self.filts))
        if len(self.filts) != len(self.fan.rays):
            raise ValueError(
                f"{len(self.filts)} filtrations for {len(self.fan.rays)} rays"
            )
        for f in self.filts:
            if f.r != self.r:
                raise ValueError("filtration ambient dimension differs from rank")

    def _value(self, key: tuple[tuple[int, int], ...]) -> Subspace:
        """F at a face key: the intersection of filt_ray(level) over its pairs.

        Memoized, so the recursion on the key's prefix is as deep as the key
        is long.
        """
        got = self._values.get(key)
        if got is None:
            if key:
                ray, level = key[-1]
                got = intersect(self._value(key[:-1]), self.filts[ray].at(level))
            else:
                got = Subspace.full(self.r)
            self._values[key] = got
        return got


def _per_ray_ints(fan: Fan, a) -> tuple[int, ...]:
    """Accept an int (constant), a sequence, or a mapping ray index -> int."""
    rays = range(len(fan.rays))
    if isinstance(a, Mapping):
        stray = [k for k in a if as_int(k, "twist key") not in rays]
        if stray:
            raise ValueError(f"twist keys {stray} name no ray of the fan")
        return tuple(as_int(a.get(i, 0), "twist") for i in rays)
    if isinstance(a, (int, float, Fraction)):
        return (as_int(a, "twist"),) * len(fan.rays)
    vals = tuple(as_int(t, "twist") for t in a)
    if len(vals) != len(fan.rays):
        raise ValueError(f"{len(vals)} twist values for {len(fan.rays)} rays")
    return vals


def line_bundle(fan: Fan, a=0) -> TVB:
    """Rank-1 bundle whose filtration at ray rho is full up to a_rho, then zero."""
    twists = _per_ray_ints(fan, a)
    filts = tuple(Filtration(1, [(t, Subspace.zero(1))]) for t in twists)
    return TVB(fan, 1, filts)


def tangent_bundle(fan: Fan) -> TVB:
    """Rank-n bundle with filtration full ⊃ <rho> ⊃ 0 jumping at 0 and 1."""
    n = fan.n
    zero = Subspace.zero(n)
    filts = tuple(Filtration(n, [(0, Subspace(n, [ray])), (1, zero)]) for ray in fan.rays)
    return TVB(fan, n, filts)


def _embed(v: Subspace, total: int, offset: int) -> list[tuple]:
    pad_left = (0,) * offset
    pad_right = (0,) * (total - offset - v.ambient_dim)
    return [pad_left + row + pad_right for row in v.rows]


def direct_sum(v: TVB, w: TVB) -> TVB:
    """Blockwise direct sum; the summand filtrations embed side by side."""
    if v.fan != w.fan:
        raise ValueError("direct sum of bundles on different fans")
    r = v.r + w.r
    filts = []
    for fv, fw in zip(v.filts, w.filts):
        thresholds = sorted(set(fv.thresholds) | set(fw.thresholds))
        steps = []
        for j in thresholds:
            rows = _embed(fv.at(j + 1), r, 0) + _embed(fw.at(j + 1), r, v.r)
            steps.append((j, Subspace(r, rows)))
        filts.append(Filtration(r, steps))
    return TVB(v.fan, r, tuple(filts))


def tensor_line(v: TVB, a=0) -> TVB:
    """Shift every threshold at ray rho by a_rho; subspaces are unchanged."""
    twists = _per_ray_ints(v.fan, a)
    filts = tuple(f.shifted(t) for f, t in zip(v.filts, twists))
    return TVB(v.fan, v.r, filts)


class ConeGrading(Record):
    """Character grading of Q^r adapted to all filtrations of one cone.

    ``pieces`` maps characters (in global dual-lattice coordinates) to the
    nonzero graded subspaces, stored sorted by character.
    """

    cone: Cone
    pieces: tuple[tuple[Character, Subspace], ...]

    def multiplicities(self) -> tuple[tuple[Character, int], ...]:
        return tuple((u, v.dim) for u, v in self.pieces)


class Incompatible(Record):
    """An incompatible cone: its forced multiplicities sum to ``total``, not
    to the rank ``r`` (the pieces span Q^r, so total > r).  ``reason`` is the
    oracle's wording; ``certificate``, the reports', adds the pieces' dependence."""

    cone: Cone
    total: int
    r: int

    @property
    def reason(self) -> str:
        return f"forced multiplicities sum to {self.total}, expected rank {self.r}"

    @property
    def certificate(self) -> str:
        return (
            "candidate pieces are not jointly independent: dimensions sum to "
            f"{self.total} but span has dimension {self.r}; oracle: {self.reason}"
        )


class OracleVerdict(Record):
    compatible: bool
    reason: str | None = None


def _raised(key: tuple, ray: int, level: int) -> tuple:
    """The face key with ``ray``'s pair set to ``level``, kept in ray order."""
    i = bisect_left(key, (ray,))  # first pair whose ray is >= ray
    j = i + 1 if i < len(key) and key[i][0] == ray else i
    return key[:i] + ((ray, level),) + key[j:]


def _unit_spanned(sub: Subspace) -> bool:
    """Whether the subspace is spanned by unit vectors: each canonical row has one nonzero."""
    return all(row.count(0) == sub.ambient_dim - 1 for row in sub.rows)


def _coordinate_levels(v: TVB, rays: tuple[int, ...]) -> list[tuple[int, ...]] | None:
    """Per unit vector e_q of Q^r, its levels on ``rays``, when every step of
    those rays is spanned by unit vectors; otherwise None.  A level is the
    threshold just past the steps that contain e_q (module docstring)."""
    per_ray = []
    for i in rays:
        steps, counts = v.filts[i].steps, [0] * v.r
        for _, sub in steps:
            if not _unit_spanned(sub):
                return None
            for p in sub.pivots:
                counts[p] += 1
        per_ray.append([steps[c][0] for c in counts])
    return list(zip(*per_ray)) if per_ray else [()] * v.r


def _greedy_pieces(v: TVB, sigma: Cone) -> dict[tuple[int, ...], Subspace]:
    """The nonzero greedy pieces E_u of one cone, keyed by the grid point u.

    On a coordinate cone, the unit vectors grouped by their levels, in
    lexicographic order.  Otherwise the walk: depth first, ray by ray; along
    an axis it stops at the first level whose prefix value is zero, so it
    visits the support of F and nothing else.
    """
    rays = sigma.ray_indices
    levels = _coordinate_levels(v, rays)
    pieces: dict[tuple[int, ...], Subspace] = {}
    if levels is not None:
        groups: dict[tuple[int, ...], list[int]] = {}
        for q, u in enumerate(levels):
            groups.setdefault(u, []).append(q)
        r = v.r
        for u in sorted(groups):
            units = [[0] * q + [1] + [0] * (r - q - 1) for q in groups[u]]
            pieces[u] = Subspace._canonical(r, units, groups[u])
    elif not v._value(()).is_zero():
        _descend(v, rays, [v.filts[i].thresholds for i in rays], pieces, 0, (), ())
    return pieces


def _descend(v: TVB, rays, axes, pieces: dict, k: int, levels: tuple, key: tuple) -> None:
    """Walk the grid points that extend ``levels`` on rays k, k+1, ...: a
    module function, so a walk leaves no reference cycle behind."""
    if k == len(rays):
        piece = _leaf(v, rays, axes, levels, key)
        if piece is not None:
            pieces[levels] = piece
        return
    ray, axis = rays[k], axes[k]
    # the first threshold adds no pair to the key
    _descend(v, rays, axes, pieces, k + 1, levels + (axis[0],), key)
    for level in axis[1:]:
        sub = key + ((ray, level),)
        if v._value(sub).is_zero():  # F shrinks along the axis: no piece from here on
            break
        _descend(v, rays, axes, pieces, k + 1, levels + (level,), sub)


def _leaf(v: TVB, rays, axes, levels: tuple, key: tuple) -> Subspace | None:
    """E_u at the grid point u = ``levels``, or None when m(u) = 0.  F_+(u)
    sums the values one threshold up each axis."""
    value = v._value
    here = value(key)
    ups = []
    for k, lv in enumerate(levels):
        axis = axes[k]
        i = bisect_left(axis, lv + 1)  # filt_k(lv + 1) = filt_k(axis[i])
        if i == len(axis):
            continue  # past the last threshold filt_k is zero
        up = value(_raised(key, rays[k], axis[i]))
        if up.dim == here.dim:  # up ⊆ here, so up = here = F_+
            return None
        ups.append(up)
    above = subspace_sum(Subspace.zero(v.r), *ups)
    return complement_within(above, here) if above.dim < here.dim else None


def cone_grading(v: TVB, sigma: Cone) -> ConeGrading | Incompatible:
    """Grading of Q^r adapted to all ray filtrations of one maximal cone.

    The greedy pieces, each at its character, when the forced multiplicities
    sum to the rank (the decision of the module docstring); otherwise the
    failed count.
    """
    duals = dual_basis(v.fan, sigma)
    pieces = _greedy_pieces(v, sigma)
    total = sum(piece.dim for piece in pieces.values())
    if total != v.r:
        return Incompatible(sigma, total, v.r)
    # character of grid point u: u_j = Σ_k u_k duals[k][j], one column per j
    columns = tuple(zip(*duals))
    graded = [
        (tuple(sum(map(mul, levels, col)) for col in columns), piece)
        for levels, piece in pieces.items()
    ]
    graded.sort(key=lambda p: p[0])
    return ConeGrading(sigma, tuple(graded))


def adapted_basis_oracle(v: TVB, sigma: Cone) -> OracleVerdict:
    """Whether an adapted grading exists on one cone: ``cone_grading``'s count."""
    out = cone_grading(v, sigma)
    if isinstance(out, Incompatible):
        return OracleVerdict(False, out.reason)
    return OracleVerdict(True)


class BundleVerdict(Record):
    """Outcome of the per-cone compatibility check over a whole fan.

    ``status`` is "compatible" or "incompatible"; an incompatible verdict
    reports the lowest-index failing cone with its certificate.
    """

    status: str
    cone_index: int | None = None
    certificate: str | None = None
    gradings: tuple[ConeGrading, ...] | None = None

    @property
    def compatible(self) -> bool:
        return self.status == "compatible"


def is_vector_bundle(v: TVB) -> BundleVerdict:
    """Run the grading construction on every maximal cone."""
    gradings = []
    for idx, sigma in enumerate(v.fan.max_cones):
        out = cone_grading(v, sigma)
        if isinstance(out, Incompatible):
            return BundleVerdict("incompatible", idx, out.certificate)
        gradings.append(out)
    return BundleVerdict("compatible", gradings=tuple(gradings))


class ChernData(Record):
    """Character multiset with multiplicities at each maximal cone.

    One entry per maximal cone, in fan order: (cone index, ((character,
    multiplicity), ...)) with characters sorted.  Multiplicities at every cone
    sum to the rank.
    """

    by_cone: tuple[tuple[int, tuple[tuple[Character, int], ...]], ...]


def equivariant_chern_data(v: TVB, verdict: BundleVerdict | None = None) -> ChernData:
    """Fixed-point character data of a compatible bundle."""
    if verdict is None:
        verdict = is_vector_bundle(v)
    if not verdict.compatible:
        raise ValueError(
            f"bundle is {verdict.status} (cone {verdict.cone_index}): "
            f"{verdict.certificate}"
        )
    assert verdict.gradings is not None
    data = tuple(
        (idx, grading.multiplicities())
        for idx, grading in enumerate(verdict.gradings)
    )
    return ChernData(data)
