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
"""

import itertools
import random

import pytest

from toric_cohiggs import (
    ConeGrading,
    Filtration,
    Incompatible,
    Subspace,
    TVB,
    adapted_basis_oracle,
    cone_grading,
    direct_sum,
    fan_hirzebruch,
    fan_pn,
    fan_product,
    is_vector_bundle,
    line_bundle,
    tangent_bundle,
)
from toric_cohiggs.bundles import OracleVerdict, _greedy_pieces
from toric_cohiggs.fans import dual_basis

from conftest import random_bundle, random_filtration, standard_cone_fan
from reference import Values, fresh_full, pairwise_sum, reference_pieces, sum_above, value_at

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


MULTI_CONE_FANS = {
    "p2": fan_pn(2),
    "p1xp2": fan_product(fan_pn(1), fan_pn(2)),
    "p3": fan_pn(3),
    "f2": fan_hirzebruch(2),
    "p1^3": fan_product(fan_product(fan_pn(1), fan_pn(1)), fan_pn(1)),
}


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
