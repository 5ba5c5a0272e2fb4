"""Shared fixtures: a zoo of fans and bundles plus seeded random generators."""

from __future__ import annotations

import random
import re
from fractions import Fraction as Q

import pytest

from toric_cohiggs import (
    Cone,
    Fan,
    Filtration,
    Mat,
    Subspace,
    TVB,
    center,
    direct_sum,
    fan_hirzebruch,
    fan_pn,
    fan_product,
    line_bundle,
    tangent_bundle,
)
from toric_cohiggs.cli import three_lines_bundle  # noqa: F401  (re-exported to the tests)

from reference import mul_vec


def center_elements(alg) -> list[Mat]:
    """``center(alg)`` as matrices: each coordinate row y over its pivot entry y[p]."""
    cen = center(alg)
    return [alg.element(y, y[p]) for y, p in zip(cen.rows, cen.pivots)]


def standard_cone_fan(n: int) -> Fan:
    """Single-cone fan on the standard basis; legal because completeness is not required."""
    rays = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return Fan(n, rays, (Cone(tuple(range(n))),))


@pytest.fixture(scope="session")
def fan_zoo() -> dict:
    return {
        "pn1": fan_pn(1),
        "pn2": fan_pn(2),
        "pn3": fan_pn(3),
        "pn4": fan_pn(4),
        "p1xp1": fan_product(fan_pn(1), fan_pn(1)),
        "p1xp2": fan_product(fan_pn(1), fan_pn(2)),
        "hirz0": fan_hirzebruch(0),
        "hirz1": fan_hirzebruch(1),
        "hirz2": fan_hirzebruch(2),
        "hirz3": fan_hirzebruch(3),
    }


@pytest.fixture(scope="session")
def bundle_zoo(fan_zoo) -> dict:
    zoo = {}
    for name, fan in fan_zoo.items():
        zoo[f"tangent_{name}"] = tangent_bundle(fan)
        zoo[f"line_{name}"] = line_bundle(fan, [(-1) ** i for i in range(len(fan.rays))])
        zoo[f"sum_{name}"] = direct_sum(tangent_bundle(fan), line_bundle(fan, 1))
    zoo["three_lines"] = three_lines_bundle()
    return zoo


# ---------------------------------------------------------------------------
# seeded random data

def random_subspace(rng: random.Random, ambient: int, dim: int) -> Subspace:
    """A dim-dimensional subspace with small integer spanning vectors."""
    if dim == 0:
        return Subspace.zero(ambient)
    if dim == ambient:
        return Subspace.full(ambient)
    for _ in range(50):
        rows = [
            [rng.randint(-3, 3) for _ in range(ambient)] for _ in range(dim)
        ]
        s = Subspace(ambient, rows)
        if s.dim == dim:
            return s
    raise RuntimeError("failed to sample a subspace of the requested dimension")


def random_subspace_inside(rng: random.Random, outer: Subspace, dim: int) -> Subspace:
    """A dim-dimensional subspace of the given one."""
    if dim == 0:
        return Subspace.zero(outer.ambient_dim)
    for _ in range(50):
        rows = []
        for _ in range(dim):
            coeffs = [rng.randint(-2, 2) for _ in range(outer.dim)]
            vec = [
                sum(Q(c) * b[k] for c, b in zip(coeffs, outer.basis))
                for k in range(outer.ambient_dim)
            ]
            rows.append(vec)
        s = Subspace(outer.ambient_dim, rows)
        if s.dim == dim:
            return s
    return Subspace(outer.ambient_dim, outer.basis[:dim])


def random_filtration(rng: random.Random, r: int, lo: int = -2, hi: int = 2):
    """Random decreasing filtration with thresholds in [lo, hi]."""
    n_steps = rng.randint(1, min(r + 1, 3))
    dims = sorted(rng.sample(range(r), min(n_steps, r)), reverse=True)
    if not dims or dims[-1] != 0:
        dims.append(0)
    thresholds = sorted(rng.sample(range(lo, hi + 1), len(dims)))
    current = Subspace.full(r)
    steps = []
    for j, d in zip(thresholds, dims):
        current = random_subspace_inside(rng, current, d)
        steps.append((j, current))
    return Filtration(r, steps)


def random_bundle(rng: random.Random, fan: Fan, r: int) -> TVB:
    filts = tuple(random_filtration(rng, r) for _ in fan.rays)
    return TVB(fan, r, filts)


def coordinate_filtration(rng: random.Random, r: int) -> Filtration:
    """A random decreasing chain of coordinate subspaces, unit vectors in a random order."""
    order = rng.sample(range(r), r)
    dims = sorted(rng.sample(range(r), rng.randint(1, r)), reverse=True)
    thresholds = sorted(rng.sample(range(-3, 4), len(dims)))
    steps = [(j, Subspace(r, [[int(i == c) for i in range(r)] for c in order[:d]]))
             for j, d in zip(thresholds, dims)]
    return Filtration(r, steps)


def coordinate_bundle(rng: random.Random, fan: Fan, r: int, generic_rays=()) -> TVB:
    """Coordinate filtrations on every ray, except random ones on ``generic_rays``."""
    filts = tuple(random_filtration(rng, r) if k in generic_rays else coordinate_filtration(rng, r)
                  for k in range(len(fan.rays)))
    return TVB(fan, r, filts)


def random_matrix(rng: random.Random, r: int) -> Mat:
    return Mat([[rng.randint(-2, 2) for _ in range(r)] for _ in range(r)])


def random_invertible(rng: random.Random, r: int) -> Mat:
    while True:
        m = random_matrix(rng, r)
        if Subspace(r, m.rows).dim == r:
            return m


def permute_rays(v: TVB, perm: list[int]) -> TVB:
    """Bundle with rays (and their filtrations) listed in permuted order."""
    fan = v.fan
    inverse = [0] * len(perm)
    for new, old in enumerate(perm):
        inverse[old] = new
    new_rays = tuple(fan.rays[old] for old in perm)
    new_cones = tuple(
        Cone(tuple(inverse[i] for i in c.ray_indices)) for c in fan.max_cones
    )
    new_fan = Fan(fan.n, new_rays, new_cones)
    new_filts = tuple(v.filts[old] for old in perm)
    return TVB(new_fan, v.r, new_filts)


def transform_bundle(v: TVB, g: Mat) -> TVB:
    """Apply one invertible change of basis of Q^r to every filtration subspace."""
    filts = []
    for f in v.filts:
        steps = [
            (j, Subspace(v.r, [mul_vec(g, b) for b in sub.basis]))
            for j, sub in f.steps
        ]
        filts.append(Filtration(v.r, steps))
    return TVB(v.fan, v.r, tuple(filts))


# ---------------------------------------------------------------------------
# acceptance reporting: one PASS/FAIL line per criterion in the summary

_CRITERION_RE = re.compile(r"test_acceptance\.py::test_(criterion_\d+)_(\w+)")


def pytest_terminal_summary(terminalreporter):
    outcomes: dict[tuple[str, str], bool] = {}
    for status, passed in (("passed", True), ("failed", False), ("error", False)):
        for report in terminalreporter.stats.get(status, []):
            m = _CRITERION_RE.search(getattr(report, "nodeid", ""))
            if m:
                key = (m.group(1), m.group(2))
                outcomes[key] = outcomes.get(key, True) and passed
    if not outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for (crit, name), ok in sorted(outcomes.items()):
        label = crit.replace("criterion_", "criterion ")
        terminalreporter.write_line(
            f"{label} ({name}): {'PASS' if ok else 'FAIL'}"
        )
