"""Fans: constructors, validation verdicts, dual bases, and the reference face check."""

import pytest

from toric_cohiggs import (
    Cone,
    Fan,
    dual_basis,
    fan_hirzebruch,
    fan_pn,
    fan_point,
    fan_product,
    pairing,
    validate_fan,
)
from toric_cohiggs.fans import is_primitive

from reference import face_failure


def test_fan_p1_shape():
    f = fan_pn(1)
    assert f.rays == ((1,), (-1,))
    assert len(f.max_cones) == 2
    assert validate_fan(f).ok and face_failure(f) is None


def test_fan_p2_shape():
    f = fan_pn(2)
    assert len(f.rays) == 3
    assert f.rays[2] == (-1, -1)
    assert len(f.max_cones) == 3
    assert validate_fan(f).ok and face_failure(f) is None


def test_fan_pn_rejects_zero():
    with pytest.raises(ValueError):
        fan_pn(0)


def test_fan_p4_validates():
    assert validate_fan(fan_pn(4)).ok


def test_non_primitive_ray_fails():
    f = Fan(2, ((2, 0), (0, 1)), (Cone((0, 1)),))
    verdict = validate_fan(f)
    assert not verdict.ok
    assert "primitive" in verdict.reason


@pytest.mark.parametrize(
    "v, primitive",
    [((), False), ((0, 0), False), ((2, 0), False), ((-2, 4), False),
     ((-1, 2), True), ((3, -5), True), ((6, 10, 15), True)],
)
def test_is_primitive_on_literal_vectors(v, primitive):
    assert is_primitive(v) is primitive


def test_non_smooth_cone_fails():
    f = Fan(2, ((1, 0), (1, 2)), (Cone((0, 1)),))
    verdict = validate_fan(f)
    assert not verdict.ok
    assert "smooth" in verdict.reason


def test_skew_but_unimodular_cone_passes():
    f = Fan(2, ((1, 0), (2, 1)), (Cone((0, 1)),))
    assert validate_fan(f).ok


def test_unused_ray_fails():
    f = Fan(2, ((1, 0), (0, 1), (1, 1)), (Cone((0, 1)),))
    verdict = validate_fan(f)
    assert not verdict.ok
    assert "no maximal cone" in verdict.reason


def test_duplicate_cone_fails():
    f = Fan(2, ((1, 0), (0, 1)), (Cone((0, 1)), Cone((1, 0))))
    assert not validate_fan(f).ok


def test_overlapping_cones_fail_face_check():
    # cone(e1, e1+e2) and cone(e2, e1+e2) sit inside cone(e1, e2): validation
    # does not see it yet (ROADMAP item 4), the reference face check does
    rays = ((1, 0), (0, 1), (1, 1))
    for second in (Cone((0, 2)), Cone((1, 2))):
        f = Fan(2, rays, (Cone((0, 1)), second))
        assert validate_fan(f).ok
        assert "common face" in face_failure(f)


def test_proper_fans_pass_face_check():
    for f in (fan_pn(2), fan_pn(3), fan_hirzebruch(2), fan_product(fan_pn(1), fan_pn(1))):
        assert validate_fan(f).ok and face_failure(f) is None


def test_product_p1_p1():
    f = fan_product(fan_pn(1), fan_pn(1))
    assert f.rays == ((1, 0), (-1, 0), (0, 1), (0, -1))
    assert len(f.max_cones) == 4
    assert validate_fan(f).ok


def test_product_p1_p2():
    f = fan_product(fan_pn(1), fan_pn(2))
    assert len(f.rays) == 5
    assert len(f.max_cones) == 6
    assert validate_fan(f).ok and face_failure(f) is None


def test_product_with_point_is_isomorphic_copy():
    f = fan_pn(2)
    g = fan_product(f, fan_point())
    assert g.n == f.n
    assert g.rays == f.rays
    assert [c.ray_indices for c in g.max_cones] == [c.ray_indices for c in f.max_cones]


def test_hirzebruch_zero_matches_p1xp1_up_to_ray_order():
    f = fan_hirzebruch(0)
    g = fan_product(fan_pn(1), fan_pn(1))
    assert sorted(f.rays) == sorted(g.rays)
    assert validate_fan(f).ok


@pytest.mark.parametrize("a", [0, 1, 2, 3])
def test_hirzebruch_validates(a):
    f = fan_hirzebruch(a)
    assert validate_fan(f).ok and face_failure(f) is None


def test_hirzebruch_rejects_negative():
    with pytest.raises(ValueError):
        fan_hirzebruch(-1)


def test_dual_basis_standard_cone():
    f = fan_pn(3)
    sigma = next(c for c in f.max_cones if c.ray_indices == (0, 1, 2))
    assert dual_basis(f, sigma) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_dual_basis_p2_nonstandard_cone():
    f = fan_pn(2)
    sigma = next(c for c in f.max_cones if c.ray_indices == (1, 2))
    assert dual_basis(f, sigma) == ((-1, 1), (-1, 0))


def test_dual_basis_pairing_identity_on_zoo(fan_zoo):
    for fan in fan_zoo.values():
        for sigma in fan.max_cones:
            duals = dual_basis(fan, sigma)
            rays = fan.cone_rays(sigma)
            for k, u in enumerate(duals):
                for l, rho in enumerate(rays):
                    assert pairing(u, rho) == int(k == l)


def test_warm_dual_basis_compares_no_cones(monkeypatch):
    # the first call per cone computes the basis; later calls look it up by the
    # cone's ray indices, without scanning the maximal cones for an equal one
    f = fan_pn(3)
    first = [dual_basis(f, sigma) for sigma in f.max_cones]
    compared = []
    eq = Cone.__eq__

    def counting_eq(self, other):
        compared.append((self, other))
        return eq(self, other)

    monkeypatch.setattr(Cone, "__eq__", counting_eq)
    for sigma, duals in zip(f.max_cones, first):
        assert dual_basis(f, Cone(sigma.ray_indices)) is duals
    assert compared == []


def test_dual_basis_rejects_foreign_cone():
    f = fan_pn(2)
    with pytest.raises(ValueError):
        dual_basis(f, Cone((0,)))


def test_cone_sorts_and_rejects_duplicates():
    assert Cone((2, 0, 1)).ray_indices == (0, 1, 2)
    with pytest.raises(ValueError):
        Cone((0, 0, 1))


def test_all_cone_determinants_unimodular_in_zoo(fan_zoo):
    from toric_cohiggs.fans import _cone_duals

    for fan in fan_zoo.values():
        for cone in fan.max_cones:
            assert type(_cone_duals(fan, cone)) is tuple
