"""Fan validation and dual bases against the Fraction elimination they replaced.

``reference_det``, ``reference_dual_basis`` and ``reference_validate_fan`` are
copies of the ``fans`` code before one integer elimination of [M | I] per cone
decided both smoothness and the dual basis: a Fraction determinant by
Gaussian elimination, and a Fraction Gauss-Jordan of [M | I] whose right half
must be integral.  They live here only as references.  Both read a cone's
fault from ``reference_cone_fault``, in the texts of ``validate_fan``, which
``dual_basis`` raises too since one per-cone check (``fans._cone_duals``)
serves both.  With
``check_faces`` the reference validation also runs ``reference.face_failure``,
the extreme-ray face check that the library does not run yet (ROADMAP item 4):
every broken fan below, the overlapping ones included, fails it.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import face_failure, reference_rref_rows
from toric_cohiggs import (
    Cone,
    Fan,
    dual_basis,
    fan_hirzebruch,
    fan_point,
    fan_pn,
    fan_product,
    validate_fan,
)
from toric_cohiggs import fans
from toric_cohiggs.fans import FanVerdict, _cone_duals, is_primitive


def reference_det(m: list[list[Fraction]]) -> Fraction:
    """Determinant by Gaussian elimination on a copy."""
    n = len(m)
    if n == 0:
        return Fraction(1)
    m = [row[:] for row in m]
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = m[col][col]
        for i in range(col + 1, n):
            if m[i][col] != 0:
                f = m[i][col] / inv
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return det


def reference_unimodular(fan: Fan, cone: Cone) -> bool:
    rows = [fan.rays[i] for i in cone.ray_indices]
    return reference_det([[Fraction(a) for a in r] for r in rows]) in (1, -1)


def reference_cone_fault(fan: Fan, cone: Cone) -> str | None:
    """The first fault of a maximal cone, as ``validate_fan`` words it after "cone {ci} "."""
    if any(i < 0 or i >= len(fan.rays) for i in cone.ray_indices):
        return "has a ray index out of range"
    for i in cone.ray_indices:
        if len(fan.rays[i]) != fan.n:
            return f"has a ray of length {len(fan.rays[i])}, expected {fan.n}"
    if len(cone.ray_indices) != fan.n:
        return f"has {len(cone.ray_indices)} rays, expected {fan.n}"
    if not reference_unimodular(fan, cone):
        return "is not smooth (determinant not ±1)"
    return None


def reference_dual_basis(fan: Fan, sigma: Cone):
    if sigma not in fan.max_cones:
        raise ValueError("cone is not a maximal cone of the fan")
    fault = reference_cone_fault(fan, sigma)
    if fault is not None:
        raise ValueError(f"cone {fault}")
    rows = [fan.rays[i] for i in sigma.ray_indices]
    n = fan.n
    aug = [[Fraction(a) for a in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    reduced, pivots = reference_rref_rows(aug)
    assert pivots == list(range(n))
    inv_rows = [r[n:] for r in reduced[:n]]
    duals = []
    for k in range(n):
        col = [inv_rows[i][k] for i in range(n)]
        assert all(c.denominator == 1 for c in col)
        duals.append(tuple(int(c) for c in col))
    return tuple(duals)


def reference_validate_fan(fan: Fan, check_faces: bool = False) -> FanVerdict:
    """The validation before the change, optionally followed by the face check."""
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
        fault = reference_cone_fault(fan, cone)
        if fault is not None:
            return FanVerdict(False, f"cone {ci} {fault}")
    used = {i for cone in fan.max_cones for i in cone.ray_indices}
    missing = sorted(set(range(len(fan.rays))) - used)
    if missing:
        return FanVerdict(False, f"ray {missing[0]} lies in no maximal cone")
    reason = face_failure(fan) if check_faces else None
    return FanVerdict(reason is None, reason)


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "error", str(exc)


def smooth_fans() -> dict:
    p1, p2 = fan_pn(1), fan_pn(2)
    out = {f"pn{n}": fan_pn(n) for n in range(1, 5)}
    out.update({f"hirz{a}": fan_hirzebruch(a) for a in range(6)})
    out.update({
        "point": fan_point(),
        "p1xp1": fan_product(p1, p1),
        "p1xp2": fan_product(p1, p2),
        "p2xp1": fan_product(p2, p1),
        "p2xp2": fan_product(p2, p2),
        "hirz3xp1": fan_product(fan_hirzebruch(3), p1),
        "p1xhirz5": fan_product(p1, fan_hirzebruch(5)),
        "p2xpoint": fan_product(p2, fan_point()),
    })
    return out


# Broken fans, each failing (at least) one of the checks that reach the cones:
# the first failure is reported, so several problems in one fan pin the order.
# validate_fan refuses a ray of the wrong length before it reaches any cone,
# and dual_basis refuses the cone.
BROKEN_FANS = {
    "long-rays": Fan(2, ((1, 0, 0), (0, 1, 0)), (Cone((0, 1)),)),
    "mixed-ray-lengths": Fan(2, ((1, 0), (0, 1, 0)), (Cone((0, 1)),)),
    "det2": Fan(2, ((1, 0), (1, 2)), (Cone((0, 1)),)),
    "det-2": Fan(2, ((1, 2), (1, 0)), (Cone((0, 1)),)),
    "det3-in-3d": Fan(3, ((1, 0, 0), (0, 1, 0), (1, 1, 3)), (Cone((0, 1, 2)),)),
    "singular": Fan(2, ((1, 0), (-1, 0)), (Cone((0, 1)),)),
    "singular-3d": Fan(3, ((1, 0, 0), (0, 1, 0), (1, 1, 0)), (Cone((0, 1, 2)),)),
    "short-cone": Fan(2, ((1, 0), (0, 1)), (Cone((0,)), Cone((0, 1)))),
    "long-cone": Fan(2, ((1, 0), (0, 1), (-1, -1)), (Cone((0, 1, 2)),)),
    "index-out-of-range": Fan(2, ((1, 0), (0, 1)), (Cone((0, 5)),)),
    "negative-index": Fan(2, ((1, 0), (0, 1)), (Cone((-1, 1)),)),
    # dual_basis once read fan.rays[-1] here, and raised IndexError past the end
    "negative-index-first": Fan(2, ((1, 0), (0, 1)), (Cone((-1, 0)),)),
    "range-before-smooth": Fan(2, ((1, 0), (1, 2)), (Cone((0, 7)), Cone((0, 1)))),
    "smooth-before-range": Fan(2, ((1, 0), (1, 2)), (Cone((0, 1)), Cone((0, 7)))),
    "smooth-before-length": Fan(2, ((1, 0), (1, 2), (0, 1)), (Cone((0, 1)), Cone((2,)))),
    "length-before-smooth": Fan(2, ((1, 0), (1, 2), (0, 1)), (Cone((2,)), Cone((0, 1)))),
    "second-cone-det2": Fan(2, ((1, 0), (0, 1), (1, 2)), (Cone((0, 1)), Cone((0, 2)))),
    "smooth-before-duplicate": Fan(2, ((1, 0), (1, 2)), (Cone((0, 1)), Cone((1, 0)))),
    "duplicate-before-smooth": Fan(
        2, ((1, 0), (1, 2), (0, 1)), (Cone((0, 2)), Cone((2, 0)), Cone((0, 1)))
    ),
    "smooth-then-unused-ray": Fan(2, ((1, 0), (1, 2), (0, 1)), (Cone((0, 1)),)),
    "unused-ray": Fan(2, ((1, 0), (0, 1), (1, 1)), (Cone((0, 1)),)),
    "overlap": Fan(2, ((1, 0), (0, 1), (1, 1)), (Cone((0, 1)), Cone((0, 2)))),
    "overlap-inside": Fan(2, ((1, 0), (0, 1), (1, 1)), (Cone((0, 1)), Cone((1, 2)))),
    "non-primitive": Fan(2, ((2, 0), (0, 1)), (Cone((0, 1)),)),
    "no-cones": Fan(2, ((1, 0), (0, 1)), ()),
}


@pytest.mark.parametrize("name", sorted(smooth_fans()))
def test_smooth_fans_match_fraction_reference(name):
    fan = smooth_fans()[name]
    assert validate_fan(fan) == reference_validate_fan(fan)
    assert reference_validate_fan(fan, check_faces=True).ok
    for cone in fan.max_cones:
        assert _cone_duals(fan, cone) == reference_dual_basis(fan, cone)
        assert reference_unimodular(fan, cone)
        assert dual_basis(fan, cone) == reference_dual_basis(fan, cone)
        assert dual_basis(fan, cone) == reference_dual_basis(fan, cone)  # from the cache


def test_zoo_dual_bases_match_fraction_reference(fan_zoo):
    for fan in fan_zoo.values():
        for cone in fan.max_cones:
            assert dual_basis(fan, cone) == reference_dual_basis(fan, cone)


@pytest.mark.parametrize("name", sorted(BROKEN_FANS))
def test_broken_fans_give_the_reference_reasons(name):
    fan = BROKEN_FANS[name]
    assert validate_fan(fan) == reference_validate_fan(fan)
    assert not reference_validate_fan(fan, check_faces=True).ok
    foreign = Cone(tuple(range(fan.n)))
    if foreign not in fan.max_cones:
        assert outcome(dual_basis, fan, foreign) == outcome(reference_dual_basis, fan, foreign)


@pytest.mark.parametrize("name", sorted({**smooth_fans(), **BROKEN_FANS}))
def test_dual_basis_raises_exactly_the_per_cone_fault_of_validate_fan(name):
    fan = {**smooth_fans(), **BROKEN_FANS}[name]
    reason = validate_fan(fan).reason or ""
    for ci, cone in enumerate(fan.max_cones):
        fault = reference_cone_fault(fan, cone)
        if reason.startswith(f"cone {ci} "):
            assert reason == f"cone {ci} {fault}"
        if fault is None:
            assert dual_basis(fan, cone) == reference_dual_basis(fan, cone)
            assert _cone_duals(fan, cone) == dual_basis(fan, cone)
        else:
            with pytest.raises(ValueError) as exc:
                dual_basis(fan, cone)
            assert str(exc.value) == f"cone {fault}"
            assert _cone_duals(fan, cone) == fault


@pytest.mark.parametrize("validate_first", [True, False])
def test_each_maximal_cone_is_eliminated_once(validate_first, monkeypatch):
    calls = []
    rref_rows = fans._rref_rows
    monkeypatch.setattr(fans, "_rref_rows", lambda rows: calls.append(rows) or rref_rows(rows))
    for name, fan in smooth_fans().items():
        calls.clear()
        for _ in range(2):
            if validate_first:
                assert validate_fan(fan).ok
            for cone in fan.max_cones:
                dual_basis(fan, cone)
            if not validate_first:
                assert validate_fan(fan).ok
        assert len(calls) == len(fan.max_cones), name


def test_broken_fan_reasons_are_the_expected_texts():
    reasons = {name: validate_fan(fan).reason for name, fan in BROKEN_FANS.items()}
    assert reasons["det2"] == reasons["det-2"] == "cone 0 is not smooth (determinant not ±1)"
    assert reasons["singular"] == "cone 0 is not smooth (determinant not ±1)"
    assert reasons["short-cone"] == "cone 0 has 1 rays, expected 2"
    assert reasons["index-out-of-range"] == "cone 0 has a ray index out of range"
    assert reasons["range-before-smooth"] == "cone 0 has a ray index out of range"
    assert reasons["smooth-before-range"] == "cone 0 is not smooth (determinant not ±1)"
    assert reasons["length-before-smooth"] == "cone 0 has 1 rays, expected 2"
    assert reasons["second-cone-det2"] == "cone 1 is not smooth (determinant not ±1)"
    assert reasons["smooth-before-duplicate"] == "cone 0 is not smooth (determinant not ±1)"
    assert reasons["duplicate-before-smooth"] == "duplicate maximal cone (0, 2)"
    assert reasons["long-rays"] == "ray 0 has length 3, expected 2"
    assert reasons["mixed-ray-lengths"] == "ray 1 has length 3, expected 2"
    for name in ("long-rays", "mixed-ray-lengths"):
        with pytest.raises(ValueError, match="^cone has a ray of length 3, expected 2$"):
            dual_basis(BROKEN_FANS[name], Cone((0, 1)))
    # only the reference face check rejects these (ROADMAP item 4)
    assert validate_fan(BROKEN_FANS["overlap"]).ok
    assert validate_fan(BROKEN_FANS["overlap-inside"]).ok


square_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


@settings(max_examples=300, deadline=None)
@given(square_matrices)
def test_single_cone_smoothness_and_dual_basis_match_reference(rows):
    n = len(rows)
    fan = Fan(n, tuple(map(tuple, rows)), (Cone(tuple(range(n))),))
    cone = fan.max_cones[0]
    assert (type(_cone_duals(fan, cone)) is tuple) == reference_unimodular(fan, cone)
    assert outcome(dual_basis, fan, cone) == outcome(reference_dual_basis, fan, cone)
    assert validate_fan(fan) == reference_validate_fan(fan)


def test_cached_eliminations_stay_out_of_equality_and_hash():
    fresh, used = fan_hirzebruch(2), fan_hirzebruch(2)
    for cone in used.max_cones:
        dual_basis(used, cone)
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
