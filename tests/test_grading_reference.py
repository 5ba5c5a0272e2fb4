"""The grading walk and the count test against a slow reference walk.

The reference is the original algorithm, kept in the tests as an independent
check (its walk is ``reference.reference_pieces``):
its grid has one extra level below each filtration's first threshold and is
walked in a sorted order, it folds subspace sums two at a time, it
row-reduces a fresh full space for every level below the first threshold,
and it verifies a grading by rebuilding every filtration value from the
pieces.  The library must give the same pieces (as a mapping: its walk has no
order), the same verdicts, certificates that render the reference's wording
(compared as text), and the same oracle verdicts and reasons.  The reference
oracle's search over support subsets (Rado's condition) runs at rank <= 4
only, where it is affordable; at every rank the rebuild check decides the
reference verdict.

A cone whose steps are all coordinate subspaces is read off its steps, not
walked.  On every such cone drawn, its pieces must be the forced walk's, in
the walk's order, and the reference's, and every verdict must be the one the
walk alone gives.  Chern numbers by localization
(``reference.localized_chern_numbers``) check the characters of both routes
with no walk.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_cohiggs import (
    ConeGrading,
    Filtration,
    Incompatible,
    Subspace,
    TVB,
    adapted_basis_oracle,
    cone_grading,
    direct_sum,
    fan_pn,
    is_vector_bundle,
    line_bundle,
    linalg,
    tangent_bundle,
)
from toric_cohiggs import bundles, cli, fans, serialize
from toric_cohiggs.bundles import OracleVerdict, _coordinate_levels, _greedy_pieces
from toric_cohiggs.fans import dual_basis

from conftest import (
    coordinate_bundle,
    random_bundle,
    random_filtration,
    select_fans,
    standard_cone_fan,
)
from reference import (
    Values,
    fresh_full,
    line_sum,
    localized_chern_numbers,
    pairwise_sum,
    reference_pieces,
    sum_above,
    value_at,
)

RADO_SCAN_MAX_RANK = 4


def reference_verify(filts, ray_indices, r, pieces):
    total = sum(p.dim for p in pieces.values())
    span = pairwise_sum(pieces.values(), r)
    if span.dim != total:
        return (
            f"candidate pieces are not jointly independent: dimensions sum to "
            f"{total} but span has dimension {span.dim}"
        )
    if total != r:
        return f"candidate piece dimensions sum to {total}, expected rank {r}"
    for k, (filt, ray_idx) in enumerate(zip(filts, ray_indices)):
        for i in list(filt.thresholds) + [filt.thresholds[-1] + 1]:
            rebuilt = pairwise_sum((p for lv, p in pieces.items() if lv[k] >= i), r)
            expected = value_at(filt, i)
            if rebuilt != expected:
                return (
                    f"ray {ray_idx} at level {i}: graded pieces rebuild a subspace "
                    f"of dimension {rebuilt.dim}, filtration value has dimension "
                    f"{expected.dim}"
                )
    return None


def reference_oracle(v, sigma):
    filts = [v.filts[i] for i in sigma.ray_indices]
    r = v.r
    value = Values(filts, r)
    mult = {}
    for levels in itertools.product(*(f.thresholds for f in filts)):
        here = value(levels)
        if here.is_zero():
            continue
        m = here.dim - sum_above(value, levels, r).dim
        if m > 0:
            mult[levels] = m
    total = sum(mult.values())
    if total != r:
        return OracleVerdict(False, f"forced multiplicities sum to {total}, expected rank {r}")
    for k, (filt, ray_idx) in enumerate(zip(filts, sigma.ray_indices)):
        for i in list(filt.thresholds) + [filt.thresholds[-1] + 1]:
            count = sum(m for lv, m in mult.items() if lv[k] >= i)
            if count != value_at(filt, i).dim:
                return OracleVerdict(
                    False,
                    f"ray {ray_idx} at level {i}: multiplicities give dimension "
                    f"{count}, filtration value has dimension {value_at(filt, i).dim}",
                )
    if r > RADO_SCAN_MAX_RANK:
        return OracleVerdict(True)
    support = list(mult.items())
    for size in range(1, len(support) + 1):
        for subset in itertools.combinations(support, size):
            need = sum(m for _, m in subset)
            span = pairwise_sum((value(lv) for lv, _ in subset), r)
            if span.dim < need:
                return OracleVerdict(
                    False,
                    f"no independent adapted system: {need} slots share a "
                    f"candidate space of dimension {span.dim}",
                )
    return OracleVerdict(True)


def reference_cone_grading(v, sigma):
    """The reference grading, or the certificate text of an incompatible cone."""
    filts = [v.filts[i] for i in sigma.ray_indices]
    pieces = reference_pieces(filts, v.r)
    cert = reference_verify(filts, sigma.ray_indices, v.r, pieces)
    if cert is None:
        duals = dual_basis(v.fan, sigma)
        graded = sorted(
            (
                tuple(
                    sum(levels[k] * duals[k][j] for k in range(len(duals)))
                    for j in range(v.fan.n)
                ),
                piece,
            )
            for levels, piece in pieces.items()
        )
        return ConeGrading(sigma, tuple(graded))
    return f"{cert}; oracle: {reference_oracle(v, sigma).reason}"


def _assert_same_outcome(got, ref, v, sigma):
    """The reference's grading, or an incompatible record of the same cone
    whose certificate is the reference's text; by the lemma of the bundles
    module its multiplicities overshoot the rank."""
    if isinstance(ref, str):
        assert isinstance(got, Incompatible) and got.cone == sigma and got.r == v.r
        assert got.certificate == ref
        assert got.total > got.r
    else:
        assert got == ref


def _assert_matches_reference(v):
    outcomes = set()
    for sigma in v.fan.max_cones:
        filts = [v.filts[i] for i in sigma.ray_indices]
        assert _greedy_pieces(v, sigma) == reference_pieces(filts, v.r)
        got = cone_grading(v, sigma)
        _assert_same_outcome(got, reference_cone_grading(v, sigma), v, sigma)
        assert adapted_basis_oracle(v, sigma) == reference_oracle(v, sigma)
        outcomes.add(type(got))
    return outcomes


def test_random_standard_cones_match_reference():
    outcomes = {"low": set(), "high": set()}
    for seed in range(210):
        rng = random.Random(seed)
        low = seed < 150
        n, r = rng.randint(1, 3), rng.randint(1, 4) if low else rng.randint(5, 6)
        v = random_bundle(rng, standard_cone_fan(n), r)
        outcomes["low" if low else "high"] |= _assert_matches_reference(v)
    # both verdicts at rank 1-4, with the subset scan, and at rank 5-6 without it
    assert outcomes == {"low": {ConeGrading, Incompatible}, "high": {ConeGrading, Incompatible}}


def test_greedy_pieces_span_every_value_above_them():
    """The lemma of the bundles module: Σ_{v>=u} E_v = F(u) at every grid point.

    In particular the pieces span Q^r, so their dimensions sum to at least r,
    and for every input the pieces with u_k >= i span filt_k(i): only the sum
    of the dimensions can fail.
    """
    for seed in range(120):
        rng = random.Random(seed)
        n, r = rng.randint(1, 3), rng.randint(1, 6)
        v = random_bundle(rng, standard_cone_fan(n), r)
        filts = v.filts
        pieces = _greedy_pieces(v, v.fan.max_cones[0])
        value = Values(filts, r)
        for u in itertools.product(*(f.thresholds for f in filts)):
            above = (p for v, p in pieces.items() if all(a >= b for a, b in zip(v, u)))
            assert pairwise_sum(above, r) == value(u)
        assert pairwise_sum(pieces.values(), r) == fresh_full(r)
        assert sum(p.dim for p in pieces.values()) >= r
        for k, filt in enumerate(filts):
            for i in range(filt.thresholds[0] - 1, filt.thresholds[-1] + 2):
                rebuilt = pairwise_sum((p for v, p in pieces.items() if v[k] >= i), r)
                assert rebuilt == value_at(filt, i)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_projective_tangent_bundles_match_reference(n):
    fan = fan_pn(n)
    tangent = tangent_bundle(fan)
    assert _assert_matches_reference(tangent) == {ConeGrading}
    assert _assert_matches_reference(direct_sum(tangent, line_bundle(fan, {0: 1}))) == {
        ConeGrading
    }


def adapted_bundle(rng, fan, r):
    """A bundle with one basis adapted to every ray: compatible on every cone.

    Ray k keeps basis vector b_j up to its own random level t_kj.
    """
    while True:
        basis = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(r)]
        if Subspace(r, basis).dim == r:
            break
    filts = []
    for _ in fan.rays:
        levels = [rng.randint(-1, 2) for _ in basis]
        steps = [
            (t, Subspace(r, [b for b, tb in zip(basis, levels) if tb > t]))
            for t in sorted(set(levels))
        ]
        filts.append(Filtration(r, steps))
    return TVB(fan, r, tuple(filts))


def _expected_verdict(references):
    for idx, ref in enumerate(references):
        if isinstance(ref, str):
            return ("incompatible", idx, ref, None)
    return ("compatible", None, None, tuple(references))


def _verdict_tuple(verdict):
    return (verdict.status, verdict.cone_index, verdict.certificate, verdict.gradings)


MULTI_CONE_FANS = select_fans(["P^2", "P^1 x P^2", "P^3", "F_2", "P^1 x P^1 x P^1"],
                              ["p2", "p1xp2", "p3", "f2", "p1^3"])


@pytest.mark.parametrize("fan_name", sorted(MULTI_CONE_FANS))
def test_shared_table_matches_reference_on_multi_cone_fans(fan_name):
    """Cones sharing a face read one table of values; no cone may pollute it.

    Every cone's grading or certificate, the oracle and the whole-fan verdict
    match the per-cone reference, whatever order the calls fill the table in.
    """
    fan = MULTI_CONE_FANS[fan_name]
    rng = random.Random(f"shared-{fan_name}")
    statuses = set()
    for _ in range(8):
        r = rng.randint(2, 4)
        base = adapted_bundle(rng, fan, r)
        ray = rng.randrange(len(fan.rays))
        perturbed = base.filts[:ray] + (random_filtration(rng, r),) + base.filts[ray + 1:]
        for filts in (base.filts, perturbed):
            v = TVB(fan, r, filts)
            references = [reference_cone_grading(v, c) for c in fan.max_cones]
            oracles = [reference_oracle(v, c) for c in fan.max_cones]
            expected = _expected_verdict(references)
            statuses.add(expected[0])
            calls = [("bundle", None)]
            calls += [(kind, i) for kind in ("grading", "oracle") for i in range(len(fan.max_cones))]
            for _ in range(3):  # one object, its table filled in three call orders
                rng.shuffle(calls)
                for kind, i in calls:
                    if kind == "bundle":
                        assert _verdict_tuple(is_vector_bundle(v)) == expected
                    elif kind == "grading":
                        sigma = fan.max_cones[i]
                        _assert_same_outcome(cone_grading(v, sigma), references[i], v, sigma)
                    else:
                        assert adapted_basis_oracle(v, fan.max_cones[i]) == oracles[i]
    # two filtrations always share an adapted basis, so surfaces never fail
    assert statuses == ({"compatible", "incompatible"} if fan.n >= 3 else {"compatible"})


# ---------------------------------------------------------------------------
# coordinate cones read off their steps, against the walk and the reference

COMPLETE_FANS = select_fans(["P^1", "P^2", "P^3", "P^1 x P^1", "P^1 x P^2", "F_1", "F_3"])
ROUTE_FANS = {**COMPLETE_FANS, **select_fans(["standard 3-cone", "point"])}
KINDS = ("coordinate", "line sum", "trivial", "rank 1", "tangent")


def twists(rng, fan):
    return [rng.randint(-2, 2) for _ in fan.rays]


def draw(rng, fan, r, kind):
    """A bundle of ``kind``: every cone coordinate, except some of the tangent bundle's."""
    if kind == "coordinate":
        return coordinate_bundle(rng, fan, r)
    if kind == "line sum":
        return line_sum(fan, [twists(rng, fan) for _ in range(r)])
    if kind == "trivial":
        return line_sum(fan, [0] * r)
    if kind == "rank 1":
        return line_bundle(fan, twists(rng, fan))
    return tangent_bundle(fan)


def walked(call, *args):
    """``call(*args)`` with the coordinate route switched off, so every cone is walked."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(bundles, "_coordinate_levels", lambda v, rays: None)
        return call(*args)


def assert_coordinate_route(v) -> tuple[int, int]:
    """Every coordinate cone's pieces are the walk's, in its order, and the
    reference's; the verdict is the walk's.  Returns the numbers of
    coordinate and of walked cones."""
    coordinate = 0
    for sigma in v.fan.max_cones:
        if _coordinate_levels(v, sigma.ray_indices) is None:
            continue
        coordinate += 1
        pieces = _greedy_pieces(v, sigma)
        assert list(pieces.items()) == list(walked(_greedy_pieces, v, sigma).items())
        assert pieces == reference_pieces([v.filts[i] for i in sigma.ray_indices], v.r)
        assert sum(p.dim for p in pieces.values()) == v.r  # always compatible
        assert isinstance(cone_grading(v, sigma), ConeGrading)
    fresh = TVB(v.fan, v.r, v.filts)  # an empty value table for the walk alone
    assert _verdict_tuple(is_vector_bundle(v)) == _verdict_tuple(walked(is_vector_bundle, fresh))
    return coordinate, len(v.fan.max_cones) - coordinate


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(sorted(ROUTE_FANS)),
       st.integers(1, 5), st.sampled_from(KINDS))
def test_coordinate_route_matches_walk_and_reference(rng, fan_name, r, kind):
    fan = ROUTE_FANS[fan_name]
    coordinate, _ = assert_coordinate_route(draw(rng, fan, r, kind))
    if kind != "tangent":
        assert coordinate == len(fan.max_cones)


def test_seeded_draws_cover_every_kind_and_mixed_cones():
    rng = random.Random(27)
    seen = {}
    for trial in range(140):
        fan_name = sorted(ROUTE_FANS)[trial % len(ROUTE_FANS)]
        kind = KINDS[trial % len(KINDS)]
        v = draw(rng, ROUTE_FANS[fan_name], rng.randint(1, 5), kind)
        counts = assert_coordinate_route(v)
        seen[kind] = [a + b for a, b in zip(seen.get(kind, (0, 0)), counts)]
    assert all(coordinate >= 20 for coordinate, _ in seen.values()), seen
    assert seen["tangent"][1] >= 10, seen  # T_{P^n}'s cones through the last ray are walked


def test_check_of_a_line_sum_eliminates_nothing(tmp_path, monkeypatch):
    """``check`` reads a line sum off its steps: no intersect, sum, complement
    or elimination once the file is loaded and the fan validated."""
    path = tmp_path / "lines.bundle.json"
    serialize.save_json(path, serialize.bundle_to_obj(line_sum(fan_pn(2), [0, 1, 2, 3])))
    v = serialize.load_bundle(path)
    assert fans.validate_fan(v.fan).ok  # fills the fan's dual bases
    calls = []
    for module, name in [(bundles, "intersect"), (bundles, "subspace_sum"),
                         (bundles, "complement_within"), (linalg, "_rref_rows"),
                         (fans, "_rref_rows")]:
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, name=name, real=real: calls.append(name) or real(*a))
    monkeypatch.setattr(serialize, "load_bundle", lambda _: v)
    assert cli.main(["check", str(path), "--format", "json"]) == 0
    assert calls == []
    assert v._values == {}


# ---------------------------------------------------------------------------
# Chern numbers by localization: the characters of either route, with no walk

def generic_points(rng, fan, count=3):
    """``count`` integer points that pair to nonzero with every dual basis vector."""
    duals = [u for sigma in fan.max_cones for u in dual_basis(fan, sigma)]
    points = []
    while len(points) < count:
        t = tuple(rng.randint(-60, 60) for _ in range(fan.n))
        if all(sum(a * b for a, b in zip(u, t)) for u in duals):
            points.append(t)
    return points


def chern_numbers(v, rng) -> tuple[int, ...]:
    """The localized Chern numbers of v's gradings, which must be integers and
    the same at three generic points."""
    gradings = [g.multiplicities() for g in is_vector_bundle(v).gradings]
    values = {localized_chern_numbers(v.fan, gradings, t) for t in generic_points(rng, v.fan)}
    assert len(values) == 1, values
    (numbers,) = values
    assert all(x.denominator == 1 for x in numbers), numbers
    return tuple(int(x) for x in numbers)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_tangent_bundle_chern_numbers_of_projective_space(n):
    v = tangent_bundle(fan_pn(n))
    walked_cones = {_coordinate_levels(v, c.ray_indices) is None for c in v.fan.max_cones}
    assert walked_cones == ({False} if n == 1 else {False, True})  # rank 1 is all coordinate
    numbers = chern_numbers(v, random.Random(n))
    assert numbers[0] == (n + 1) ** n  # c_1^n
    assert numbers[-1] == n + 1  # c_n, the Euler characteristic


def test_chern_numbers_of_tangent_p3_plus_o2():
    """c(T ⊕ O(8H)) = (1 + H)^4 (1 + 8H) on P^3 (twist 2 on each of 4 rays)."""
    fan = fan_pn(3)
    v = direct_sum(tangent_bundle(fan), line_bundle(fan, 2))
    assert chern_numbers(v, random.Random(3)) == (1728, 456, 52)


@pytest.mark.parametrize("fan_name", sorted(COMPLETE_FANS))
def test_localized_chern_numbers_are_integers_for_both_routes(fan_name):
    """Integral and independent of the point on coordinate bundles, line sums,
    trivial, rank-1 and tangent bundles (read off their steps, the tangent
    bundles partly) and on compatible adapted bundles (walked)."""
    fan, rng = COMPLETE_FANS[fan_name], random.Random(f"chern-{fan_name}")
    for kind in KINDS:
        chern_numbers(draw(rng, fan, rng.randint(1, 4), kind), rng)
    walked_bundles = 0
    for _ in range(4):
        v = adapted_bundle(rng, fan, rng.randint(2, 4))
        chern_numbers(v, rng)
        walked_bundles += any(_coordinate_levels(v, c.ray_indices) is None for c in fan.max_cones)
    assert walked_bundles >= 2
    assert chern_numbers(line_sum(fan, [0, 0]), rng) == (0,) * fan.n


def test_localization_catches_a_perturbed_character():
    """Any character of T_{P^2} moved by a unit vector gives a non-integer, or
    a sum that depends on the point."""
    fan, rng = fan_pn(2), random.Random(14)
    gradings = [g.multiplicities() for g in is_vector_bundle(tangent_bundle(fan)).gradings]
    for cone, classes in enumerate(gradings):
        for i, (u, m) in enumerate(classes):
            for e in ((1, 0), (0, 1), (-1, 0), (0, -1)):
                bad = [list(c) for c in gradings]
                bad[cone][i] = (tuple(a + b for a, b in zip(u, e)), m)
                values = {localized_chern_numbers(fan, bad, t) for t in generic_points(rng, fan)}
                assert len(values) > 1 or any(
                    x.denominator != 1 for x in next(iter(values))), (cone, i, e)
