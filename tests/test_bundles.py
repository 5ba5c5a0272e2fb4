"""Filtrations, bundle constructors, cone gradings, compatibility, Chern data."""

import math
import random
import re
from fractions import Fraction

import pytest

from toric_cohiggs import (
    Cone,
    ConeGrading,
    Fan,
    Filtration,
    Incompatible,
    Subspace,
    TVB,
    adapted_basis_oracle,
    cone_grading,
    direct_sum,
    equivariant_chern_data,
    fan_pn,
    fan_product,
    is_vector_bundle,
    line_bundle,
    subspace_sum,
    tangent_bundle,
    tensor_line,
)
from toric_cohiggs import bundles
from toric_cohiggs.bundles import OracleVerdict, _coordinate_levels, _greedy_pieces
from toric_cohiggs.fans import dual_basis

from conftest import (
    random_bundle,
    random_filtration,
    random_subspace_inside,
    standard_cone_fan,
    three_lines_bundle,
)
from reference import assert_normalized, raw_reading, reference_pieces


def _line(*coords):
    return Subspace(len(coords[0]) if isinstance(coords[0], tuple) else len(coords), [coords])


# ---------------------------------------------------------------------------
# filtration normalization and evaluation

def test_normalize_drops_full_space_steps():
    # over r=1 the span of (1,) is the full space, so the first step is implicit
    full = Subspace.full(1)
    zero = Subspace.zero(1)
    f = Filtration(1, [(0, full), (1, zero)])
    assert f.steps == ((1, zero),)


def test_normalize_keeps_tp1_style_data():
    zero = Subspace.zero(1)
    f = Filtration(1, [(1, zero)])
    assert f.steps == ((1, zero),)


def test_normalize_sorts_thresholds():
    line = Subspace(2, [(1, 0)])
    zero = Subspace.zero(2)
    f = Filtration(2, [(1, zero), (0, line)])
    assert f.thresholds == (0, 1)
    assert f.steps[0] == (0, line)


def test_normalize_merges_equal_consecutive_subspaces():
    line = Subspace(2, [(1, 0)])
    zero = Subspace.zero(2)
    f = Filtration(2, [(0, line), (1, line), (2, zero)])
    assert f.steps == ((0, line), (2, zero))


def test_normalize_appends_zero_step():
    line = Subspace(2, [(1, 0)])
    f = Filtration(2, [(0, line)])
    assert f.steps == ((0, line), (1, Subspace.zero(2)))


def test_normalize_rejects_non_monotone():
    l1 = Subspace(2, [(1, 0)])
    l2 = Subspace(2, [(0, 1)])
    with pytest.raises(ValueError):
        Filtration(2, [(0, l1), (1, l2)])
    with pytest.raises(ValueError):
        Filtration(2, [(0, l1), (0, l2)])


def test_eval_filtration_semantics():
    line = Subspace(2, [(1, 0)])
    f = Filtration(2, [(0, line), (1, Subspace.zero(2))])
    assert f.at(-10**6).is_full()
    assert f.at(0).is_full()
    assert f.at(1) == line
    assert f.at(2).is_zero()
    assert f.at(10**6).is_zero()


def test_walk_asks_for_no_level_below_first_threshold(monkeypatch):
    asked = []
    at = Filtration.at

    def recording_at(self, i):
        asked.append((self.thresholds[0], i))
        return at(self, i)

    monkeypatch.setattr(Filtration, "at", recording_at)
    assert is_vector_bundle(tangent_bundle(fan_pn(4))).compatible
    assert asked
    assert all(i >= first for first, i in asked)


def test_walk_caches_threshold_grid_points_only():
    # a face key lists (ray, level) pairs with strictly increasing rays, each
    # level a threshold of its ray above the first (the first adds no pair);
    # a coordinate cone is read off its steps and caches nothing
    rng = random.Random(4242)
    walked = 0
    for _ in range(30):
        v = random_bundle(rng, fan_pn(2), rng.randint(1, 4))
        is_vector_bundle(v)
        if any(_coordinate_levels(v, c.ray_indices) is None for c in v.fan.max_cones):
            assert v._values
            walked += 1
        for key in v._values:
            rays = [ray for ray, _ in key]
            assert rays == sorted(set(rays)), key
            for ray, level in key:
                assert level in v.filts[ray].thresholds[1:], key
    assert walked >= 10


@pytest.mark.parametrize("n", range(2, 11))
def test_walk_intersects_quadratically_often_on_projective_space(n, monkeypatch):
    # on T P^n the nonzero values sit at the empty face and the n + 1 rays;
    # each of the C(n + 1, 2) ray pairs is zero and ends its axis there
    calls = []
    real = bundles.intersect

    def counting_intersect(s, t):
        calls.append(None)
        return real(s, t)

    monkeypatch.setattr(bundles, "intersect", counting_intersect)
    fan = fan_pn(n)
    tangent = tangent_bundle(fan)
    for v in (tangent, direct_sum(tangent, line_bundle(fan, {0: 1}))):
        calls.clear()
        assert is_vector_bundle(v).compatible
        assert len(calls) <= math.comb(n + 2, 2)


def test_tangent_filtration_value_at_one_is_ray_line(fan_zoo):
    v = tangent_bundle(fan_zoo["pn3"])
    for ray, filt in zip(v.fan.rays, v.filts):
        assert filt.at(1) == Subspace(3, [ray])
        assert filt.at(0).is_full()
        assert filt.at(2).is_zero()


def test_filtration_constructor_rejects_bad_data():
    line, other = Subspace(2, [(1, 0)]), Subspace(2, [(0, 1)])
    zero = Subspace.zero(2)
    for r, steps, message in [
        (2, (), "a filtration needs at least one step"),
        (2, ((0, Subspace.zero(3)),), "step subspace in the wrong ambient dimension"),
        (0, ((0, zero),), "step subspace in the wrong ambient dimension"),
        (2, ((1, line), (1, zero)), "two different subspaces at threshold 1"),
        (2, ((0, line), (1, other), (2, zero)), "subspaces are not decreasing along thresholds"),
        (2, ((1, zero), (0, other), (2, line)), "subspaces are not decreasing along thresholds"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            Filtration(r, steps)


def test_filtration_constructor_normalizes_what_the_strict_checks_refused():
    line, zero, full = Subspace(2, [(1, 0)]), Subspace.zero(2), Subspace.full(2)
    for steps, want in [
        (((0, line),), ((0, line), (1, zero))),  # no zero step
        (((1, zero), (0, line)), ((0, line), (1, zero))),  # thresholds out of order
        (((0, line), (1, line), (2, zero)), ((0, line), (2, zero))),  # a repeated subspace
        (((0, line), (1, line)), ((0, line), (2, zero))),  # line on (1, 2] as the step at 1 says
        (((0, full), (1, zero)), ((1, zero),)),  # a full first step
        (((3, full),), ((4, zero),)),  # nothing but the full space
    ]:
        f = Filtration(2, steps)
        assert f.steps == want
        assert_normalized(f)


def _raw_steps(rng: random.Random, r: int) -> list:
    """Consistent raw steps: a decreasing chain, possibly starting at the full
    space, at distinct thresholds, with equal neighbours and repeated pairs,
    in random order."""
    current, raw = Subspace.full(r), []
    for j in sorted(rng.sample(range(-4, 5), rng.randint(1, 5))):
        if rng.random() < 0.6:
            current = random_subspace_inside(rng, current, rng.randint(0, current.dim))
        raw.append((j, current))
    raw += [p for p in raw if rng.random() < 0.3]
    rng.shuffle(raw)
    return raw


def test_normalized_filtrations_pass_the_constructor_checks():
    rng = random.Random(41)
    for trial in range(300):
        r = trial % 5
        raw = _raw_steps(rng, r)
        f = Filtration(r, raw)
        assert_normalized(f)
        assert Filtration(r, f.steps) == f
        assert Filtration(r, f.steps).steps == f.steps
        lo, hi = min(j for j, _ in raw), max(j for j, _ in raw)
        for i in range(lo - 2, hi + 4):
            assert f.at(i) == raw_reading(r, raw, i), (raw, i)
    for _ in range(100):  # a normalized filtration with full steps below and repeats
        r = rng.randint(1, 4)
        f = random_filtration(rng, r)
        raw = list(f.steps) + [(j, Subspace.full(r)) for j in range(-4, f.steps[0][0])]
        raw += [(j, v) for j, v in f.steps if rng.random() < 0.5]
        rng.shuffle(raw)
        assert Filtration(r, raw) == f


# ---------------------------------------------------------------------------
# constructors

def test_trivial_line_bundle_steps(fan_zoo):
    v = line_bundle(fan_zoo["pn2"], 0)
    for f in v.filts:
        assert f.steps == ((0, Subspace.zero(1)),)


def test_line_bundle_equals_tangent_on_p1():
    f = fan_pn(1)
    assert line_bundle(f, (1, 1)) == tangent_bundle(f)


def test_line_bundles_differ_by_twist():
    f = fan_pn(1)
    a = line_bundle(f, (2, -2))
    b = line_bundle(f, (0, 0))
    assert a != b and a.r == b.r == 1


def test_line_bundle_is_twisted_trivial(fan_zoo):
    f = fan_zoo["hirz1"]
    twists = [1, -2, 0, 3]
    assert line_bundle(f, twists) == tensor_line(line_bundle(f, 0), twists)


@pytest.mark.parametrize(
    "twists", [[1.5, 0, 1], [1, 0, True], 2.0, True, {0: 1, 2: 0.5}, {1: False}],
    ids=["seq-float", "seq-bool", "float", "bool", "map-float", "map-bool"],
)
def test_twists_refuse_floats_and_bools(twists):
    f = fan_pn(2)
    with pytest.raises(ValueError, match="is not an integer"):
        line_bundle(f, twists)
    with pytest.raises(ValueError, match="is not an integer"):
        tensor_line(tangent_bundle(f), twists)


@pytest.mark.parametrize(
    "twists, bad",
    [
        ([Fraction(3, 2), Fraction(-1, 2), "2"], "Fraction(3, 2)"),
        ([2, 0, "2"], "'2'"),
        ({0: Fraction(5, 2)}, "Fraction(5, 2)"),
        (Fraction(1, 3), "Fraction(1, 3)"),
        ("2", "'2'"),
    ],
    ids=["seq-fraction", "seq-string", "map-fraction", "fraction", "string"],
)
def test_twists_refuse_non_integral_fractions_and_strings(twists, bad):
    f = fan_pn(2)
    message = re.escape(f"twist {bad} is not an integer")
    with pytest.raises(ValueError, match=message):
        line_bundle(f, twists)
    with pytest.raises(ValueError, match=message):
        tensor_line(tangent_bundle(f), twists)


def test_twist_mappings_refuse_keys_that_name_no_ray():
    f = fan_pn(2)
    message = re.escape("twist keys [99, -1] name no ray of the fan")
    with pytest.raises(ValueError, match=message):
        line_bundle(f, {99: 5, -1: 3})
    with pytest.raises(ValueError, match=message):
        tensor_line(tangent_bundle(f), {0: 1, 99: 5, -1: 3})
    # a key equal to a ray index but not an integer names no ray either
    for key in (True, 1.0):
        with pytest.raises(ValueError, match=re.escape(f"twist key {key} is not an integer")):
            line_bundle(f, {key: 5})


# Each constructor that takes integers refuses what twists refuse, in the same words.
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Fan(2.0, ((1, 0), (0, 1)), ((0, 1),)), "lattice rank 2.0"),
        (lambda: Fan(2, ((1.5, 0), (0, 1)), ((0, 1),)), "ray entry 1.5"),
        (lambda: Fan(2, ((1, 0), (0, "1")), ((0, 1),)), "ray entry '1'"),
        (lambda: Cone((True, 2)), "cone index True"),
        (lambda: Cone((0, Fraction(3, 2))), "cone index Fraction(3, 2)"),
        (lambda: Filtration(1, [(1.9, Subspace.zero(1))]), "threshold 1.9"),
        (lambda: Filtration(1, ((False, Subspace.zero(1)),)), "threshold False"),
        (lambda: TVB(fan_pn(1), 1.0, line_bundle(fan_pn(1)).filts), "rank 1.0"),
        (lambda: TVB(fan_pn(1), True, line_bundle(fan_pn(1)).filts), "rank True"),
    ],
    ids=["fan-rank-float", "fan-ray-float", "fan-ray-string", "cone-bool", "cone-fraction",
         "normalize-float", "filtration-bool", "bundle-rank-float", "bundle-rank-bool"],
)
def test_integer_fields_refuse_floats_bools_and_fractions(build, message):
    with pytest.raises(ValueError, match=re.escape(f"{message} is not an integer")):
        build()


def test_integer_fields_accept_integral_fractions():
    f = Fan(2, ((Fraction(1), 0), (0, Fraction(2, 2))), (Cone((Fraction(0), 1)),))
    assert f == Fan(2, ((1, 0), (0, 1)), ((0, 1),))
    assert all(type(a) is int for ray in f.rays for a in ray)
    assert Filtration(1, [(Fraction(4, 2), Subspace.zero(1))]).thresholds == (2,)


def test_twists_accept_integral_fractions():
    f = fan_pn(2)
    v = line_bundle(f, [Fraction(2), Fraction(-4, 2), 0])
    assert v == line_bundle(f, [2, -2, 0])
    assert all(type(j) is int for filt in v.filts for j in filt.thresholds)
    assert line_bundle(f, Fraction(3)) == line_bundle(f, 3)
    t = tangent_bundle(f)
    assert tensor_line(t, {0: Fraction(5, 1)}) == tensor_line(t, {0: 5})


def test_direct_sum_blockwise_dimensions(fan_zoo):
    f = fan_zoo["pn2"]
    v = tangent_bundle(f)
    w = line_bundle(f, [2, 0, -1])
    s = direct_sum(v, w)
    assert s.r == 3
    for i, filt in enumerate(s.filts):
        for level in range(-3, 4):
            assert (
                filt.at(level).dim
                == v.filts[i].at(level).dim + w.filts[i].at(level).dim
            )


def test_direct_sum_tangent_p1_with_trivial_line():
    f = fan_pn(1)
    s = direct_sum(tangent_bundle(f), line_bundle(f, 0))
    e1 = Subspace(2, [(1, 0)])
    for filt in s.filts:
        assert filt.steps == ((0, e1), (1, Subspace.zero(2)))


def test_direct_sum_with_rank_zero_is_identity(fan_zoo):
    f = fan_zoo["pn2"]
    zero_filt = Filtration(0, ((0, Subspace.zero(0)),))
    zero_bundle = TVB(f, 0, tuple(zero_filt for _ in f.rays))
    v = tangent_bundle(f)
    assert direct_sum(v, zero_bundle) == v


def test_direct_sum_requires_same_fan():
    with pytest.raises(ValueError):
        direct_sum(tangent_bundle(fan_pn(1)), tangent_bundle(fan_pn(2)))


def test_tensor_line_identity_and_inverse(fan_zoo):
    f = fan_zoo["p1xp1"]
    v = tangent_bundle(f)
    assert tensor_line(v, 0) == v
    twists = [1, -1, 2, 0]
    assert tensor_line(tensor_line(v, twists), [-t for t in twists]) == v


# ---------------------------------------------------------------------------
# cone gradings

def test_tangent_p2_grading_pieces():
    f = fan_pn(2)
    v = tangent_bundle(f)
    sigma = next(c for c in f.max_cones if c.ray_indices == (0, 1))
    out = cone_grading(v, sigma)
    assert isinstance(out, ConeGrading)
    pieces = dict(out.pieces)
    assert pieces == {
        (1, 0): Subspace(2, [(1, 0)]),
        (0, 1): Subspace(2, [(0, 1)]),
    }


def test_rank_one_grading_has_single_piece_at_twist_character(fan_zoo):
    f = fan_zoo["pn2"]
    twists = [2, -1, 3]
    v = line_bundle(f, twists)
    for sigma in f.max_cones:
        out = cone_grading(v, sigma)
        assert isinstance(out, ConeGrading)
        duals = dual_basis(f, sigma)
        expected = tuple(
            sum(twists[i] * duals[k][j] for k, i in enumerate(sigma.ray_indices))
            for j in range(f.n)
        )
        assert out.pieces == ((expected, Subspace.full(1)),)


def test_three_lines_is_incompatible_and_oracle_agrees():
    v = three_lines_bundle()
    sigma = v.fan.max_cones[0]
    out = cone_grading(v, sigma)
    assert isinstance(out, Incompatible)
    oracle = adapted_basis_oracle(v, sigma)
    assert not oracle.compatible


def test_three_lines_with_repeated_line_is_compatible():
    # L1 = L2 distinct from L3 leaves room for a splitting
    fan = standard_cone_fan(3)
    l = Subspace(2, [(1, 0)])
    l3 = Subspace(2, [(0, 1)])
    filts = tuple(
        Filtration(2, [(0, line), (1, Subspace.zero(2))])
        for line in (l, l, l3)
    )
    v = TVB(fan, 2, filts)
    out = cone_grading(v, fan.max_cones[0])
    assert isinstance(out, ConeGrading)
    assert adapted_basis_oracle(v, fan.max_cones[0]).compatible


def test_grading_rejects_non_maximal_cone():
    v = tangent_bundle(fan_pn(2))
    with pytest.raises(ValueError):
        cone_grading(v, Cone((0,)))


def test_grading_is_independent_of_traversal_order():
    # the library walks the grid unsorted; a reference walk in three orders
    # (incomparable points tie-broken differently) finds the same pieces
    rng = random.Random(41)
    orders = [
        lambda lv: (sum(lv), lv),
        lambda lv: (sum(lv), tuple(-x for x in lv)),
        lambda lv: (sum(lv), tuple(reversed(lv))),
    ]
    for _ in range(25):
        n = rng.randint(1, 3)
        fan = standard_cone_fan(n)
        v = random_bundle(rng, fan, rng.randint(1, 3))
        pieces = _greedy_pieces(v, fan.max_cones[0])
        for key in orders:
            assert reference_pieces(v.filts, v.r, key) == pieces


def test_grading_reconstructs_filtrations_externally(bundle_zoo):
    for name in ("tangent_pn2", "tangent_p1xp1", "sum_hirz2", "line_pn3"):
        v = bundle_zoo[name]
        verdict = is_vector_bundle(v)
        assert verdict.compatible, name
        for sigma, grading in zip(v.fan.max_cones, verdict.gradings):
            for k, ray_idx in enumerate(sigma.ray_indices):
                filt = v.filts[ray_idx]
                rays = v.fan.cone_rays(sigma)
                for i in list(filt.thresholds) + [filt.thresholds[0] - 1]:
                    rebuilt = Subspace.zero(v.r)
                    for u, piece in grading.pieces:
                        if sum(a * b for a, b in zip(u, rays[k])) >= i:
                            rebuilt = subspace_sum(rebuilt, piece)
                    assert rebuilt == filt.at(i)


def test_pairs_of_filtrations_always_compatible():
    rng = random.Random(43)
    fan = standard_cone_fan(2)
    for _ in range(150):
        v = random_bundle(rng, fan, rng.randint(1, 4))
        out = cone_grading(v, fan.max_cones[0])
        assert isinstance(out, ConeGrading)


def test_grading_agrees_with_oracle_on_random_instances():
    rng = random.Random(47)
    for _ in range(120):
        n = rng.randint(1, 3)
        fan = standard_cone_fan(n)
        v = random_bundle(rng, fan, rng.randint(1, 3))
        out = cone_grading(v, fan.max_cones[0])
        oracle = adapted_basis_oracle(v, fan.max_cones[0])
        assert isinstance(out, ConeGrading) == oracle.compatible


# ---------------------------------------------------------------------------
# whole-bundle verdicts

def test_fixture_bundles_are_compatible(bundle_zoo):
    for name, v in bundle_zoo.items():
        if name == "three_lines":
            continue
        assert is_vector_bundle(v).compatible, name


def test_embedded_three_lines_names_the_failing_cone():
    fan = Fan(
        3,
        ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)),
        (Cone((0, 1, 2)), Cone((0, 1, 3))),
    )
    lines = [Subspace(2, [(1, 0)]), Subspace(2, [(0, 1)]), Subspace(2, [(1, 1)])]
    zero = Subspace.zero(2)
    filts = [Filtration(2, [(0, line), (1, zero)]) for line in lines]
    filts.append(Filtration(2, [(0, zero)]))
    v = TVB(fan, 2, tuple(filts))
    verdict = is_vector_bundle(v)
    assert verdict.status == "incompatible"
    assert verdict.cone_index == 0
    assert verdict.certificate


def test_rank_five_three_lines_is_decided_incompatible():
    base = three_lines_bundle()
    fat = base
    for _ in range(3):
        fat = direct_sum(fat, line_bundle(base.fan, 0))
    assert fat.r == 5
    verdict = is_vector_bundle(fat)
    assert verdict.status == "incompatible"
    assert verdict.cone_index == 0
    certificate = (
        "candidate pieces are not jointly independent: dimensions sum to 6 but "
        "span has dimension 5; oracle: forced multiplicities sum to 6, expected rank 5"
    )
    assert verdict.certificate == certificate
    sigma = fat.fan.max_cones[0]
    out = cone_grading(fat, sigma)
    assert isinstance(out, Incompatible) and (out.cone, out.total, out.r) == (sigma, 6, 5)
    assert out.certificate == certificate
    assert out.reason == "forced multiplicities sum to 6, expected rank 5"
    assert adapted_basis_oracle(fat, sigma) == OracleVerdict(False, out.reason)


# ---------------------------------------------------------------------------
# Chern data

def test_trivial_line_bundle_chern(fan_zoo):
    f = fan_zoo["pn2"]
    data = equivariant_chern_data(line_bundle(f, 0))
    for _, classes in data.by_cone:
        assert classes == (((0, 0), 1),)


def test_tangent_p1_chern():
    data = equivariant_chern_data(tangent_bundle(fan_pn(1)))
    assert data.by_cone == ((0, (((1,), 1),)), (1, (((-1,), 1),)))


def test_chern_multiplicities_sum_to_rank(bundle_zoo):
    for name, v in bundle_zoo.items():
        if name == "three_lines":
            continue
        data = equivariant_chern_data(v)
        for _, classes in data.by_cone:
            assert sum(m for _, m in classes) == v.r


def test_chern_shift_under_line_twist(fan_zoo):
    rng = random.Random(53)
    for key in ("pn2", "p1xp1", "hirz2"):
        f = fan_zoo[key]
        v = tangent_bundle(f)
        twists = [rng.randint(-2, 2) for _ in f.rays]
        before = equivariant_chern_data(v)
        after = equivariant_chern_data(tensor_line(v, twists))
        for (idx, classes0), (_, classes1) in zip(before.by_cone, after.by_cone):
            sigma = f.max_cones[idx]
            duals = dual_basis(f, sigma)
            shift = tuple(
                sum(twists[i] * duals[k][j] for k, i in enumerate(sigma.ray_indices))
                for j in range(f.n)
            )
            shifted = sorted(
                ((tuple(a + s for a, s in zip(u, shift)), m) for u, m in classes0)
            )
            assert shifted == sorted(classes1)


def test_chern_requires_compatible_bundle():
    with pytest.raises(ValueError):
        equivariant_chern_data(three_lines_bundle())
