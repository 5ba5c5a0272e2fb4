"""Lattices, rays, smooth full-dimensional cones, and fans.

Rays are primitive integer vectors; characters live in the dual lattice and
pair with rays through the exact integer dot product.  Only smooth maximal
cones are supported: the rays of each maximal cone must form a basis of the
lattice (determinant ±1).  Completeness of a fan is never required, so
single-cone fixtures are legal.  Nor is it yet checked that two maximal
cones meet in their common face: a cone inside another passes validation.

``validate_fan`` is the fan's only judge, for a fan read from a file too;
``Fan`` and ``Cone`` check only their integers (``as_int``).  Each maximal
cone is judged once per fan, by ``_cone_duals``: one integer elimination of
[M | I], M the cone's ray matrix, gives its dual basis or the text of its
first fault.  The fan keeps the answer, keyed by the cone's ray indices;
``validate_fan`` reports the fault and ``dual_basis`` returns the basis or
raises the fault.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

from .linalg import _rref_rows
from .records import Record

RayVec = tuple[int, ...]
Character = tuple[int, ...]


def as_int(x, what: str) -> int:
    """An int, or a Fraction that is one; anything else is refused, not truncated."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    if not isinstance(x, int) or isinstance(x, bool):
        raise ValueError(f"{what} {x!r} is not an integer")
    return int(x)


def pairing(u: Character, rho: RayVec) -> int:
    """Exact pairing <u, rho> = sum u_i rho_i."""
    if len(u) != len(rho):
        raise ValueError("pairing of vectors of different lengths")
    return sum(a * b for a, b in zip(u, rho))


def is_primitive(v: RayVec) -> bool:
    """Nonzero and with coordinate gcd 1."""
    return gcd(*v) == 1


class Cone(Record):
    """A maximal cone, stored as the sorted indices of its rays in the fan."""

    ray_indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(as_int(i, "cone index") for i in self.ray_indices)
        if len(set(idx)) != len(idx):
            raise ValueError(f"duplicate ray indices in cone {idx}")
        object.__setattr__(self, "ray_indices", tuple(sorted(idx)))


class Fan(Record):
    """Lattice rank n, primitive rays, and smooth maximal cones.

    Construction only checks and normalizes types (see ``as_int``);
    mathematical validity is the job of ``validate_fan`` so that broken
    inputs can be reported as verdicts.
    """

    n: int
    rays: tuple[RayVec, ...]
    max_cones: tuple[Cone, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", as_int(self.n, "lattice rank"))
        rays = tuple(tuple(as_int(a, "ray entry") for a in r) for r in self.rays)
        object.__setattr__(self, "rays", rays)
        cones = tuple(c if isinstance(c, Cone) else Cone(tuple(c)) for c in self.max_cones)
        object.__setattr__(self, "max_cones", cones)
        # maximal cone ray indices -> dual basis or fault text, None until judged; see _cone_duals
        object.__setattr__(self, "_duals", dict.fromkeys(c.ray_indices for c in cones))

    def cone_rays(self, cone: Cone) -> tuple[RayVec, ...]:
        return tuple(self.rays[i] for i in cone.ray_indices)


class FanVerdict(Record):
    ok: bool
    reason: str | None = None


def _cone_duals(fan: Fan, cone: Cone) -> tuple[Character, ...] | str:
    """The dual basis of a maximal cone of fan, or the text of its first fault:
    a ray index out of range, a ray of length other than n, a ray count other
    than n, or a ray matrix M that is not unimodular.  For invertible M the
    integer elimination of [M | I] gives the primitive multiples of
    [I | M^-1], and M^-1 is integral iff every pivot is 1, iff det M = ±1.
    Judged once per fan and cone.
    """
    key, n = cone.ray_indices, fan.n
    got = fan._duals[key]
    if got is not None:
        return got
    if any(i < 0 or i >= len(fan.rays) for i in key):
        got = "has a ray index out of range"
    elif wrong := [len(fan.rays[i]) for i in key if len(fan.rays[i]) != n]:
        got = f"has a ray of length {wrong[0]}, expected {n}"
    elif len(key) != n:
        got = f"has {len(key)} rays, expected {n}"
    else:
        reduced, pivots = _rref_rows(
            [list(fan.rays[i]) + [int(k == j) for j in range(n)] for k, i in enumerate(key)])
        if pivots == list(range(n)) and all(row[k] == 1 for k, row in enumerate(reduced)):
            # the rows hold M^{-1}, M with the rays as rows; u^k is its k-th column:
            # <u^k, rho_l> = (M M^{-1})_{lk} = delta
            got = tuple(tuple(row[n + k] for row in reduced) for k in range(n))
        else:
            got = "is not smooth (determinant not ±1)"
    fan._duals[key] = got
    return got


def validate_fan(fan: Fan) -> FanVerdict:
    """Check the structural fan invariants, reporting the first failure.

    Each maximal cone's fault comes from ``_cone_duals``, which keeps the
    dual basis of a sound cone for ``dual_basis``.  Whether two maximal
    cones meet in their common face is not checked.
    """
    if fan.n < 0:
        return FanVerdict(False, "negative lattice rank")
    for i, ray in enumerate(fan.rays):
        if len(ray) != fan.n:
            return FanVerdict(False, f"ray {i} has length {len(ray)}, expected {fan.n}")
        if all(a == 0 for a in ray):
            return FanVerdict(False, f"ray {i} is zero")
        if not is_primitive(ray):
            return FanVerdict(False, f"ray {i} = {ray} is not primitive")
    if len(set(fan.rays)) != len(fan.rays):
        return FanVerdict(False, "duplicate rays")
    if not fan.max_cones:
        return FanVerdict(False, "fan has no maximal cones")
    seen = set()
    for ci, cone in enumerate(fan.max_cones):
        if cone.ray_indices in seen:
            return FanVerdict(False, f"duplicate maximal cone {cone.ray_indices}")
        seen.add(cone.ray_indices)
        fault = _cone_duals(fan, cone)
        if type(fault) is str:
            return FanVerdict(False, f"cone {ci} {fault}")
    used = {i for cone in fan.max_cones for i in cone.ray_indices}
    missing = sorted(set(range(len(fan.rays))) - used)
    if missing:
        return FanVerdict(False, f"ray {missing[0]} lies in no maximal cone")
    return FanVerdict(True)


def fan_point() -> Fan:
    """The zero-dimensional fan (one empty maximal cone)."""
    return Fan(0, (), (Cone(()),))


def fan_pn(n: int) -> Fan:
    """Fan of n-dimensional projective space: e_1..e_n and minus their sum."""
    if n < 1:
        raise ValueError("projective space fan needs n >= 1")
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays.append(tuple(-1 for _ in range(n)))
    cones = [
        Cone(tuple(sorted(c))) for c in itertools.combinations(range(n + 1), n)
    ]
    return Fan(n, tuple(rays), tuple(cones))


def fan_product(f: Fan, g: Fan) -> Fan:
    """Product fan: rays are (rho, 0) and (0, tau), cones are pairwise unions."""
    n = f.n + g.n
    rays = [tuple(r) + (0,) * g.n for r in f.rays]
    rays += [(0,) * f.n + tuple(r) for r in g.rays]
    cones = []
    for cf in f.max_cones:
        for cg in g.max_cones:
            idx = tuple(cf.ray_indices) + tuple(i + len(f.rays) for i in cg.ray_indices)
            cones.append(Cone(idx))
    return Fan(n, tuple(rays), tuple(cones))


def fan_hirzebruch(a: int) -> Fan:
    """Fan of the Hirzebruch surface with twist a >= 0."""
    if a < 0:
        raise ValueError("Hirzebruch twist must be >= 0")
    rays = ((1, 0), (0, 1), (-1, a), (0, -1))
    cones = (Cone((0, 1)), Cone((1, 2)), Cone((2, 3)), Cone((3, 0)))
    return Fan(2, rays, cones)


def dual_basis(fan: Fan, sigma: Cone) -> tuple[Character, ...]:
    """Characters u^1..u^n with <u^k, rho_l> = delta_kl for sigma's rays.

    The rays are taken in stored (sorted-index) order; entries are integers
    because the ray matrix is unimodular.  The basis, or the fault raised as
    ``ValueError``, is ``_cone_duals``'s, which ``validate_fan`` reads too.
    """
    if sigma.ray_indices not in fan._duals:
        raise ValueError("cone is not a maximal cone of the fan")
    got = _cone_duals(fan, sigma)
    if type(got) is str:
        raise ValueError(f"cone {got}")
    return got
