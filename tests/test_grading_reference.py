"""The grading walk and the oracle against a slow reference walk.

The reference is the original algorithm, kept here as an independent check:
its grid has one extra level below each filtration's first threshold, it
folds subspace sums two at a time, and it row-reduces a fresh full space for
every level below the first threshold.  The library must give the same
pieces in the same order, the same certificates, and the same oracle
verdicts and reasons.
"""

import itertools
import random

import pytest

from toric_cohiggs import (
    ConeGrading,
    Incompatible,
    Indeterminate,
    Subspace,
    adapted_basis_oracle,
    cone_grading,
    direct_sum,
    fan_pn,
    line_bundle,
    tangent_bundle,
)
from toric_cohiggs.bundles import OracleVerdict, _greedy_pieces
from toric_cohiggs.fans import dual_basis
from toric_cohiggs.linalg import complement_within, intersect, subspace_sum

from conftest import random_bundle, standard_cone_fan

ORACLE_LIMIT = 4


def _fresh_full(r):
    return Subspace(r, [[int(i == j) for j in range(r)] for i in range(r)])


def _at(filt, i):
    below = sum(1 for j in filt.thresholds if j < i)
    return _fresh_full(filt.r) if below == 0 else filt.steps[below - 1][1]


def _pairwise_sum(subspaces, r):
    out = Subspace.zero(r)
    for s in subspaces:
        out = subspace_sum(out, s)
    return out


class _Values:
    """F(levels) = ∩_k F_k(levels_k), memoized by prefix."""

    def __init__(self, filts, r):
        self.filts = filts
        self.cache = {(): _fresh_full(r)}

    def __call__(self, levels):
        if levels not in self.cache:
            k = len(levels) - 1
            self.cache[levels] = intersect(self(levels[:-1]), _at(self.filts[k], levels[k]))
        return self.cache[levels]


def _above(value, levels, r):
    bumped = (levels[:k] + (lv + 1,) + levels[k + 1:] for k, lv in enumerate(levels))
    return _pairwise_sum((value(b) for b in bumped), r)


def reference_pieces(filts, r):
    value = _Values(filts, r)
    axes = [[f.thresholds[0] - 1, *f.thresholds] for f in filts]
    points = sorted(itertools.product(*axes), key=lambda lv: (sum(lv), lv), reverse=True)
    pieces = {}
    for levels in points:
        here = value(levels)
        if here.is_zero():
            continue
        above = _above(value, levels, r)
        if above != here:
            pieces[levels] = complement_within(above, here)
    return pieces


def reference_verify(filts, ray_indices, r, pieces):
    total = sum(p.dim for p in pieces.values())
    span = _pairwise_sum(pieces.values(), r)
    if span.dim != total:
        return (
            f"candidate pieces are not jointly independent: dimensions sum to "
            f"{total} but span has dimension {span.dim}"
        )
    if total != r:
        return f"candidate piece dimensions sum to {total}, expected rank {r}"
    for k, (filt, ray_idx) in enumerate(zip(filts, ray_indices)):
        for i in list(filt.thresholds) + [filt.thresholds[-1] + 1]:
            rebuilt = _pairwise_sum((p for lv, p in pieces.items() if lv[k] >= i), r)
            expected = _at(filt, i)
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
    value = _Values(filts, r)
    mult = {}
    for levels in itertools.product(*(f.thresholds for f in filts)):
        here = value(levels)
        if here.is_zero():
            continue
        m = here.dim - _above(value, levels, r).dim
        if m > 0:
            mult[levels] = m
    total = sum(mult.values())
    if total != r:
        return OracleVerdict(False, f"forced multiplicities sum to {total}, expected rank {r}")
    for k, (filt, ray_idx) in enumerate(zip(filts, sigma.ray_indices)):
        for i in list(filt.thresholds) + [filt.thresholds[-1] + 1]:
            count = sum(m for lv, m in mult.items() if lv[k] >= i)
            if count != _at(filt, i).dim:
                return OracleVerdict(
                    False,
                    f"ray {ray_idx} at level {i}: multiplicities give dimension "
                    f"{count}, filtration value has dimension {_at(filt, i).dim}",
                )
    support = list(mult.items())
    for size in range(1, len(support) + 1):
        for subset in itertools.combinations(support, size):
            need = sum(m for _, m in subset)
            span = _pairwise_sum((value(lv) for lv, _ in subset), r)
            if span.dim < need:
                return OracleVerdict(
                    False,
                    f"no independent adapted system: {need} slots share a "
                    f"candidate space of dimension {span.dim}",
                )
    return OracleVerdict(True)


def reference_cone_grading(v, sigma):
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
    if v.r > ORACLE_LIMIT:
        return Indeterminate(
            sigma,
            f"greedy verification failed ({cert}) and rank {v.r} exceeds the "
            f"oracle limit {ORACLE_LIMIT}",
        )
    return Incompatible(sigma, f"{cert}; oracle: {reference_oracle(v, sigma).reason}")


def _assert_matches_reference(v):
    outcomes = set()
    for sigma in v.fan.max_cones:
        filts = [v.filts[i] for i in sigma.ray_indices]
        assert list(_greedy_pieces(filts, v.r, None).items()) == list(
            reference_pieces(filts, v.r).items()
        )
        got = cone_grading(v, sigma, oracle_limit=ORACLE_LIMIT)
        assert got == reference_cone_grading(v, sigma)
        assert adapted_basis_oracle(v, sigma) == reference_oracle(v, sigma)
        outcomes.add(type(got))
    return outcomes


def test_random_standard_cones_match_reference():
    outcomes = set()
    for seed in range(150):
        rng = random.Random(seed)
        n, r = rng.randint(1, 3), rng.randint(1, 4)
        outcomes |= _assert_matches_reference(random_bundle(rng, standard_cone_fan(n), r))
    # both branches of cone_grading are exercised, the oracle's included
    assert outcomes == {ConeGrading, Incompatible}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_projective_tangent_bundles_match_reference(n):
    fan = fan_pn(n)
    tangent = tangent_bundle(fan)
    assert _assert_matches_reference(tangent) == {ConeGrading}
    assert _assert_matches_reference(direct_sum(tangent, line_bundle(fan, {0: 1}))) == {
        ConeGrading
    }
