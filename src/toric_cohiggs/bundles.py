"""Toric vector bundles as per-ray decreasing subspace filtrations.

A bundle of rank r on a fan is one decreasing, exhaustive and separated
Z-indexed filtration of Q^r per ray, encoded as (threshold, subspace) steps:
the subspace attached to threshold j is the filtration value on the interval
(j, next threshold], the full space is implicit below the first threshold and
the last subspace is zero.

The compatibility check asks, cone by cone, for a character grading of Q^r
that simultaneously reconstructs the filtrations of all the cone's rays.  The
construction is greedy (descending over the finite candidate character grid,
taking deterministic complements) followed by full verification; when the
verification fails at small rank, an independent counting/transversal oracle
arbitrates, so that small-rank verdicts are complete.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

from .errors import InternalError
from .fans import Character, Cone, Fan, dual_basis
from .linalg import (
    Subspace,
    complement_within,
    intersect,
    subspace_sum,
)

DEFAULT_ORACLE_LIMIT = 4


@dataclass(frozen=True)
class Filtration:
    """Decreasing filtration of Q^r with strictly increasing thresholds.

    Use ``normalize_filtration`` to build one from raw steps; the constructor
    insists on already-normalized data.
    """

    r: int
    steps: tuple[tuple[int, Subspace], ...]

    def __post_init__(self):
        steps = tuple((int(j), v) for j, v in self.steps)
        object.__setattr__(self, "steps", steps)
        if not steps:
            raise ValueError("a filtration needs at least one step")
        for _, v in steps:
            if v.ambient_dim != self.r:
                raise ValueError("step subspace in the wrong ambient dimension")
        for (j0, v0), (j1, v1) in zip(steps, steps[1:]):
            if j1 <= j0:
                raise ValueError("thresholds must be strictly increasing")
            if not (v0.contains(v1) and v0 != v1):
                raise ValueError("step subspaces must be strictly decreasing")
        if not steps[-1][1].is_zero():
            raise ValueError("the last step subspace must be zero")
        if self.r > 0 and steps[0][1].is_full():
            raise ValueError("the first step subspace must be proper")

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


def normalize_filtration(r: int, raw_steps: Iterable[tuple[int, Subspace]]) -> Filtration:
    """Build a canonical Filtration from raw (threshold, subspace) pairs.

    Sorts by threshold, rejects non-monotone data, drops steps whose subspace
    equals the full space (implicit below the first threshold), merges equal
    consecutive subspaces keeping the earliest threshold, and appends the zero
    subspace one past the last threshold when missing.
    """
    steps = sorted(((int(j), v) for j, v in raw_steps), key=lambda p: p[0])
    for (j0, v0), (j1, v1) in zip(steps, steps[1:]):
        if j0 == j1 and v0 != v1:
            raise ValueError(f"two different subspaces at threshold {j0}")
        if not v0.contains(v1):
            raise ValueError("subspaces are not decreasing along thresholds")
    if r == 0:
        return Filtration(0, ((steps[0][0] if steps else 0, Subspace.zero(0)),))
    cleaned: list[tuple[int, Subspace]] = []
    for j, v in steps:
        if v.ambient_dim != r:
            raise ValueError("step subspace in the wrong ambient dimension")
        if v.is_full():
            continue
        if cleaned and cleaned[-1][1] == v:
            continue
        cleaned.append((j, v))
    if not cleaned:
        base = steps[-1][0] + 1 if steps else 0
        return Filtration(r, ((base, Subspace.zero(r)),))
    if not cleaned[-1][1].is_zero():
        cleaned.append((cleaned[-1][0] + 1, Subspace.zero(r)))
    return Filtration(r, tuple(cleaned))


@dataclass(frozen=True)
class TVB:
    """A toric vector bundle: rank r plus one filtration per fan ray."""

    fan: Fan
    r: int
    filts: tuple[Filtration, ...]

    def __post_init__(self):
        object.__setattr__(self, "filts", tuple(self.filts))
        if len(self.filts) != len(self.fan.rays):
            raise ValueError(
                f"{len(self.filts)} filtrations for {len(self.fan.rays)} rays"
            )
        for f in self.filts:
            if f.r != self.r:
                raise ValueError("filtration ambient dimension differs from rank")


def _per_ray_ints(fan: Fan, a) -> tuple[int, ...]:
    """Accept an int (constant), a sequence, or a mapping ray index -> int."""
    if isinstance(a, Mapping):
        return tuple(int(a.get(i, 0)) for i in range(len(fan.rays)))
    if isinstance(a, (int,)):
        return tuple(int(a) for _ in fan.rays)
    vals = tuple(int(x) for x in a)
    if len(vals) != len(fan.rays):
        raise ValueError(f"{len(vals)} twist values for {len(fan.rays)} rays")
    return vals


def line_bundle(fan: Fan, a=0) -> TVB:
    """Rank-1 bundle whose filtration at ray rho is full up to a_rho, then zero."""
    twists = _per_ray_ints(fan, a)
    filts = tuple(
        normalize_filtration(1, [(t, Subspace.zero(1))]) for t in twists
    )
    return TVB(fan, 1, filts)


def tangent_bundle(fan: Fan) -> TVB:
    """Rank-n bundle with filtration full ⊃ <rho> ⊃ 0 jumping at 0 and 1."""
    n = fan.n
    filts = []
    for ray in fan.rays:
        line = Subspace(n, [ray])
        filts.append(
            normalize_filtration(n, [(0, line), (1, Subspace.zero(n))])
        )
    return TVB(fan, n, tuple(filts))


def _embed(v: Subspace, total: int, offset: int) -> list[tuple]:
    pad_left = (0,) * offset
    pad_right = (0,) * (total - offset - v.ambient_dim)
    return [pad_left + row + pad_right for row in v.basis]


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
        filts.append(normalize_filtration(r, steps))
    return TVB(v.fan, r, tuple(filts))


def tensor_line(v: TVB, a=0) -> TVB:
    """Shift every threshold at ray rho by a_rho; subspaces are unchanged."""
    twists = _per_ray_ints(v.fan, a)
    filts = tuple(f.shifted(t) for f, t in zip(v.filts, twists))
    return TVB(v.fan, v.r, filts)


@dataclass(frozen=True)
class ConeGrading:
    """Character grading of Q^r adapted to all filtrations of one cone.

    ``pieces`` maps characters (in global dual-lattice coordinates) to the
    nonzero graded subspaces, stored sorted by character.
    """

    cone: Cone
    pieces: tuple[tuple[Character, Subspace], ...]

    def pieces_dict(self) -> dict[Character, Subspace]:
        return dict(self.pieces)

    def multiplicities(self) -> tuple[tuple[Character, int], ...]:
        return tuple((u, v.dim) for u, v in self.pieces)


@dataclass(frozen=True)
class Incompatible:
    cone: Cone
    certificate: str


@dataclass(frozen=True)
class Indeterminate:
    cone: Cone
    reason: str


@dataclass(frozen=True)
class OracleVerdict:
    compatible: bool
    reason: str | None = None


class _LevelCache:
    """Memoized F(levels) = ∩_k filt_k(levels_k) for one cone.

    A grading piece can only sit where every level is a threshold of its
    filtration: elsewhere one axis has filt_k(l) = filt_k(l + 1), so F equals
    a summand of F_+.  The walks therefore visit the threshold grid only.
    """

    def __init__(self, filts: Sequence[Filtration], r: int):
        self.filts = filts
        self.axes = [f.thresholds for f in filts]
        self.zero = Subspace.zero(r)
        self.cache: dict[tuple[int, ...], Subspace] = {(): Subspace.full(r)}

    def value(self, levels: tuple[int, ...]) -> Subspace:
        got = self.cache.get(levels)
        if got is not None:
            return got
        prefix = self.value(levels[:-1])
        k = len(levels) - 1
        out = intersect(prefix, self.filts[k].at(levels[k]))
        self.cache[levels] = out
        return out

    def value_and_above(self, levels: tuple[int, ...]) -> tuple[Subspace, Subspace]:
        """F(levels) and F_+(levels), the sum of the values one step up each axis.

        Any adapted grading has dim F - dim F_+ vectors of character
        ``levels``: the forced multiplicity.
        """
        here = self.value(levels)
        if here.is_zero():
            return here, here
        ups = (
            self.value(levels[:k] + (lv + 1,) + levels[k + 1:]) for k, lv in enumerate(levels)
        )
        return here, subspace_sum(self.zero, *ups)


def _descending_grid(
    axes: Sequence[Sequence[int]], tie_break: Callable | None
) -> list[tuple[int, ...]]:
    """A linear extension of the componentwise order, from maximal to minimal.

    Points of equal coordinate sum are incomparable, so any tie_break keeps
    the traversal a valid linear extension.
    """
    if tie_break is None:
        tie_break = lambda levels: levels
    points = list(itertools.product(*axes))
    points.sort(key=lambda lv: (sum(lv), tie_break(lv)), reverse=True)
    return points


def _greedy_pieces(
    filts: Sequence[Filtration],
    r: int,
    tie_break: Callable | None,
) -> dict[tuple[int, ...], Subspace]:
    cache = _LevelCache(filts, r)
    pieces: dict[tuple[int, ...], Subspace] = {}
    for levels in _descending_grid(cache.axes, tie_break):
        f_here, f_above = cache.value_and_above(levels)
        if f_above == f_here:
            continue
        piece = complement_within(f_above, f_here)
        if piece.dim:
            pieces[levels] = piece
    return pieces


def _verify_pieces(
    filts: Sequence[Filtration],
    ray_indices: Sequence[int],
    r: int,
    pieces: Mapping[tuple[int, ...], Subspace],
) -> str | None:
    """First failed grading identity, or None when all hold."""
    zero = Subspace.zero(r)
    total = sum(p.dim for p in pieces.values())
    span = subspace_sum(zero, *pieces.values())
    if span.dim != total:
        return (
            f"candidate pieces are not jointly independent: dimensions sum to "
            f"{total} but span has dimension {span.dim}"
        )
    if total != r:
        return f"candidate piece dimensions sum to {total}, expected rank {r}"
    for k, (filt, ray_idx) in enumerate(zip(filts, ray_indices)):
        levels_to_check = list(filt.thresholds) + [filt.thresholds[-1] + 1]
        for i in levels_to_check:
            rebuilt = subspace_sum(
                zero, *(piece for levels, piece in pieces.items() if levels[k] >= i)
            )
            expected = filt.at(i)
            if rebuilt != expected:
                return (
                    f"ray {ray_idx} at level {i}: graded pieces rebuild a subspace "
                    f"of dimension {rebuilt.dim}, filtration value has dimension "
                    f"{expected.dim}"
                )
    return None


def adapted_basis_oracle(v: TVB, sigma: Cone) -> OracleVerdict:
    """Independent decision procedure for the existence of an adapted grading.

    Any valid grading is supported on the threshold grid with the forced
    multiplicities m(u) = dim F(u) - dim F_+(u), so a grading exists iff those
    multiplicities reproduce every filtration dimension and the multiset
    {F(u) with multiplicity m(u)} admits a jointly independent choice of
    vectors, one per slot (checked by the rank condition over all support
    subsets).  No complement construction is involved.
    """
    filts = [v.filts[i] for i in sigma.ray_indices]
    r = v.r
    cache = _LevelCache(filts, r)
    mult: dict[tuple[int, ...], int] = {}
    for levels in itertools.product(*cache.axes):
        f_here, f_above = cache.value_and_above(levels)
        m = f_here.dim - f_above.dim
        if m > 0:
            mult[levels] = m
    total = sum(mult.values())
    if total != r:
        return OracleVerdict(
            False,
            f"forced multiplicities sum to {total}, expected rank {r}",
        )
    for k, (filt, ray_idx) in enumerate(zip(filts, sigma.ray_indices)):
        for i in list(filt.thresholds) + [filt.thresholds[-1] + 1]:
            count = sum(m for levels, m in mult.items() if levels[k] >= i)
            if count != filt.at(i).dim:
                return OracleVerdict(
                    False,
                    f"ray {ray_idx} at level {i}: multiplicities give dimension "
                    f"{count}, filtration value has dimension {filt.at(i).dim}",
                )
    support = list(mult.items())
    for size in range(1, len(support) + 1):
        for subset in itertools.combinations(support, size):
            need = sum(m for _, m in subset)
            span = subspace_sum(*(cache.value(levels) for levels, _ in subset))
            if span.dim < need:
                return OracleVerdict(
                    False,
                    f"no independent adapted system: {need} slots share a "
                    f"candidate space of dimension {span.dim}",
                )
    return OracleVerdict(True)


def cone_grading(
    v: TVB,
    sigma: Cone,
    *,
    oracle_limit: int = DEFAULT_ORACLE_LIMIT,
    tie_break: Callable | None = None,
) -> ConeGrading | Incompatible | Indeterminate:
    """Grading of Q^r adapted to all ray filtrations of one maximal cone.

    Greedy descending construction with deterministic complements, verified in
    full.  On verification failure the adapted-basis oracle arbitrates up to
    ``oracle_limit``; above it the verdict is Indeterminate rather than a
    guess.  ``tie_break`` reorders traversal among incomparable grid points
    (the result must not depend on it).
    """
    duals = dual_basis(v.fan, sigma)
    filts = [v.filts[i] for i in sigma.ray_indices]
    pieces = _greedy_pieces(filts, v.r, tie_break)
    cert = _verify_pieces(filts, sigma.ray_indices, v.r, pieces)
    if cert is None:
        graded: list[tuple[Character, Subspace]] = []
        for levels, piece in pieces.items():
            u = tuple(
                sum(levels[k] * duals[k][j] for k in range(len(duals)))
                for j in range(v.fan.n)
            )
            graded.append((u, piece))
        graded.sort(key=lambda p: p[0])
        return ConeGrading(sigma, tuple(graded))
    if v.r > oracle_limit:
        return Indeterminate(
            sigma,
            f"greedy verification failed ({cert}) and rank {v.r} exceeds the "
            f"oracle limit {oracle_limit}",
        )
    oracle = adapted_basis_oracle(v, sigma)
    if oracle.compatible:
        raise InternalError(
            "greedy grading verification failed but the adapted-basis oracle "
            f"found the cone compatible: {cert}"
        )
    return Incompatible(sigma, f"{cert}; oracle: {oracle.reason}")


@dataclass(frozen=True)
class BundleVerdict:
    """Outcome of the per-cone compatibility check over a whole fan.

    ``status`` is "compatible", "incompatible" or "indeterminate"; failures
    report the lowest-index failing cone with its certificate.
    """

    status: str
    cone_index: int | None = None
    certificate: str | None = None
    gradings: tuple[ConeGrading, ...] | None = None

    @property
    def compatible(self) -> bool:
        return self.status == "compatible"


def is_vector_bundle(
    v: TVB,
    *,
    oracle_limit: int = DEFAULT_ORACLE_LIMIT,
    tie_break: Callable | None = None,
) -> BundleVerdict:
    """Run the grading construction on every maximal cone."""
    gradings = []
    for idx, sigma in enumerate(v.fan.max_cones):
        out = cone_grading(v, sigma, oracle_limit=oracle_limit, tie_break=tie_break)
        if isinstance(out, Incompatible):
            return BundleVerdict("incompatible", idx, out.certificate)
        if isinstance(out, Indeterminate):
            return BundleVerdict("indeterminate", idx, out.reason)
        gradings.append(out)
    return BundleVerdict("compatible", gradings=tuple(gradings))


@dataclass(frozen=True)
class ChernData:
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
