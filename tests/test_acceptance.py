"""Acceptance suite: one test per exit criterion, exact tolerances, no slack.

Each criterion prints a PASS/FAIL line in the terminal summary (see the hook
in conftest.py) and must finish in well under ten seconds.
"""

import json
import random
from pathlib import Path

import pytest

from toric_cohiggs import (
    ConeGrading,
    Mat,
    Subspace,
    ToricCoHiggsField,
    adapted_basis_oracle,
    canonical_pair,
    classify,
    cone_grading,
    direct_sum,
    equivariant_chern_data,
    fan_hirzebruch,
    fan_pn,
    fan_product,
    field_from_vector_field,
    filtered_endos,
    is_vector_bundle,
    line_bundle,
    subspace_sum,
    tangent_bundle,
    tensor_line,
    validate_field,
    verify_integrability,
)
from toric_cohiggs.fans import dual_basis, pairing
from toric_cohiggs.serialize import (
    bundle_from_obj,
    bundle_to_obj,
    dumps_canonical,
    fan_from_obj,
    fan_to_obj,
    field_from_obj,
    field_to_obj,
)

from conftest import (
    permute_rays,
    random_bundle,
    random_invertible,
    random_matrix,
    standard_cone_fan,
    three_lines_bundle,
    transform_bundle,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_criterion_1_pn_classification(n):
    """Tangent bundle of n-dimensional projective space: scalars only."""
    rep = classify(tangent_bundle(fan_pn(n)))
    assert rep.bundle_status == "compatible"
    assert rep.dim_h == 1
    assert rep.commutative is True
    assert rep.basis == (Mat.identity(n),)
    assert rep.parameters == n
    assert rep.generators is not None and len(rep.generators) == n


def test_criterion_2_p1xp1_classification():
    """Tangent bundle of the product of two lines: the diagonal pair."""
    rep = classify(tangent_bundle(fan_product(fan_pn(1), fan_pn(1))))
    assert rep.dim_h == 2
    assert rep.basis == (Mat([[1, 0], [0, 0]]), Mat([[0, 0], [0, 1]]))
    assert rep.commutative is True
    assert rep.parameters == 4


def _positive_suite():
    fans = {
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
    out = {}
    for name, fan in fans.items():
        out[f"tangent_{name}"] = tangent_bundle(fan)
        out[f"tangent_plus_line_{name}"] = direct_sum(
            tangent_bundle(fan), line_bundle(fan, [(-1) ** i for i in range(len(fan.rays))])
        )
    return out


def test_criterion_3_compatibility_positive_suite():
    """Standard tangent bundles and tangent-plus-line sums are all compatible,
    and the returned gradings rebuild every filtration value exactly."""
    for name, v in _positive_suite().items():
        verdict = is_vector_bundle(v)
        assert verdict.compatible, f"{name}: {verdict.certificate}"
        for sigma, grading in zip(v.fan.max_cones, verdict.gradings):
            rays = v.fan.cone_rays(sigma)
            for k, ray_idx in enumerate(sigma.ray_indices):
                filt = v.filts[ray_idx]
                for i in list(filt.thresholds) + [
                    filt.thresholds[0] - 1,
                    filt.thresholds[-1] + 1,
                ]:
                    rebuilt = Subspace.zero(v.r)
                    for u, piece in grading.pieces:
                        if pairing(u, rays[k]) >= i:
                            rebuilt = subspace_sum(rebuilt, piece)
                    assert rebuilt == filt.at(i), (name, ray_idx, i)


def test_criterion_4_compatibility_negative_three_lines():
    """Three distinct lines on one 3-dimensional cone admit no grading."""
    v = three_lines_bundle()
    sigma = v.fan.max_cones[0]
    out = cone_grading(v, sigma)
    assert not isinstance(out, ConeGrading)
    assert out.certificate
    oracle = adapted_basis_oracle(v, sigma)
    assert oracle.compatible is False
    verdict = is_vector_bundle(v)
    assert verdict.status == "incompatible"
    assert verdict.cone_index == 0


def test_criterion_5_oracle_equivalence_500():
    """On 500 random (bundle, tuple) instances with r <= 3, n <= 3 and
    thresholds in [-2, 2]: the chart integrability check agrees with the
    direct commutation check, and the greedy grading agrees with the
    adapted-basis oracle, in 100% of cases."""
    rng = random.Random(20240)
    instances = 0
    for _ in range(500):
        n = rng.randint(1, 3)
        fan = standard_cone_fan(n) if rng.random() < 0.7 else fan_pn(n)
        r = rng.randint(1, 3)
        v = random_bundle(rng, fan, r)
        mats = [random_matrix(rng, r) for _ in range(n)]
        field = ToricCoHiggsField(v, tuple(mats))
        direct = validate_field(field)
        assert verify_integrability(field).valid == direct.commutation_ok
        for sigma in v.fan.max_cones:
            greedy = cone_grading(v, sigma)
            oracle = adapted_basis_oracle(v, sigma)
            assert isinstance(greedy, ConeGrading) == oracle.compatible
        instances += 1
    assert instances == 500


def test_criterion_6_invariance_properties():
    """dim h is unchanged by ray permutation and by one simultaneous change
    of basis applied to every filtration subspace, on 100 random bundles."""
    rng = random.Random(20241)
    for _ in range(100):
        n = rng.randint(1, 3)
        fan = standard_cone_fan(n) if rng.random() < 0.5 else fan_pn(n)
        r = rng.randint(1, 3)
        v = random_bundle(rng, fan, r)
        d = filtered_endos(v).dim
        perm = list(range(len(fan.rays)))
        rng.shuffle(perm)
        assert filtered_endos(permute_rays(v, perm)).dim == d
        g = random_invertible(rng, r)
        assert filtered_endos(transform_bundle(v, g)).dim == d


def test_criterion_7_scalar_fields_valid():
    """Scalar multiples of the identity in every slot are valid on every
    fixture bundle."""
    for name, v in {**_positive_suite(), "three_lines": three_lines_bundle()}.items():
        coeffs = list(range(1, v.fan.n + 1))
        field = field_from_vector_field(v, coeffs)
        verdict = validate_field(field)
        assert verdict.valid, name
        assert verify_integrability(field).valid, name


def test_criterion_8_canonical_pair_experiment():
    """The nilpotent candidate tuple always commutes and passes integrability;
    its filtration-preservation verdict per linearization shift is pinned by
    the golden file and may not drift."""
    golden = json.loads((GOLDEN_DIR / "canonical_pair.json").read_text())
    recomputed = []
    for name, n in (("pn1", 1), ("pn2", 2)):
        fan = fan_pn(n)
        _, mats = canonical_pair(fan)
        for shift in (-1, 0, 1):
            bundle = direct_sum(tangent_bundle(fan), line_bundle(fan, shift))
            field = ToricCoHiggsField(bundle, mats)
            verdict = validate_field(field)
            integ = verify_integrability(field)
            assert verdict.commutation_ok, (name, shift)
            assert integ.valid, (name, shift)
            recomputed.append(
                {
                    "variety": name,
                    "shift": shift,
                    "trivial_linearization": shift == 0,
                    "filtration_preserving": verdict.filtration_ok,
                    "filtration_violations": [
                        list(v) for v in verdict.filtration_violations
                    ],
                    "commutation_ok": verdict.commutation_ok,
                    "integrability_valid": integ.valid,
                }
            )
    recomputed.sort(key=lambda c: (c["variety"], c["shift"]))
    assert recomputed == golden["cases"]


def test_criterion_9_serialization_and_chern_shift():
    """Fan, bundle and field files round-trip byte-identically, and twisting
    by a line bundle shifts every cone's character data exactly."""
    for name, v in _positive_suite().items():
        fan_text = dumps_canonical(fan_to_obj(v.fan))
        assert dumps_canonical(fan_to_obj(fan_from_obj(json.loads(fan_text)))) == fan_text
        text = dumps_canonical(bundle_to_obj(v))
        assert dumps_canonical(bundle_to_obj(bundle_from_obj(json.loads(text)))) == text
        field = field_from_vector_field(v, list(range(1, v.fan.n + 1)))
        ftext = dumps_canonical(field_to_obj(field))
        assert dumps_canonical(field_to_obj(field_from_obj(json.loads(ftext)))) == ftext
    rng = random.Random(20242)
    for fan in (fan_pn(2), fan_product(fan_pn(1), fan_pn(1)), fan_hirzebruch(3)):
        v = tangent_bundle(fan)
        twists = [rng.randint(-2, 2) for _ in fan.rays]
        before = equivariant_chern_data(v)
        after = equivariant_chern_data(tensor_line(v, twists))
        for (idx, classes0), (_, classes1) in zip(before.by_cone, after.by_cone):
            sigma = fan.max_cones[idx]
            duals = dual_basis(fan, sigma)
            shift = tuple(
                sum(twists[i] * duals[k][j] for k, i in enumerate(sigma.ray_indices))
                for j in range(fan.n)
            )
            shifted = sorted(
                (tuple(a + s for a, s in zip(u, shift)), m) for u, m in classes0
            )
            assert shifted == sorted(classes1)
