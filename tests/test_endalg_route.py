"""The adapted-basis route of ``filtered_endos`` against the solve in all r² unknowns.

``filtered_endos`` solves in the basis of the greedy pieces of two rays of a
maximal cone, or, when every step of those rays is spanned by unit vectors,
in the unit vectors themselves (P is then a permutation, and no walk,
annihilator, product or elimination is needed unless another ray has a step
that is not a coordinate subspace).  ``reference.reference_filtered_endos``
is the route it replaced: the kernel of every step's constraint rows f_i w_j
in all r² unknowns.

Both paths are forced through the route's own helpers, with no option:
``endalg._piece_basis`` applies to every bundle, and ``endalg._adapted_basis``
returns unit levels exactly when the permutation path applies.  The inputs
are random bundles, compatible and not, over P^1, P^2, P^3, P^1 x P^2, F_a,
the point fan and the standard 3-cone, and bundles with coordinate steps:
sums of line bundles, and random coordinate flags, with and without a
generic filtration on a third ray.  Every result must equal the reference's
canonical rows and pivots.
"""

from __future__ import annotations

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from toric_cohiggs import (
    Filtration,
    Subspace,
    TVB,
    fan_pn,
    filtered_endos,
    is_vector_bundle,
    linalg,
)
from toric_cohiggs.endalg import _adapted_basis, _piece_basis, _solve_adapted

from conftest import coordinate_bundle, random_bundle, random_invertible, select_fans
from reference import line_sum, reference_filtered_endos

FANS = select_fans(["P^1", "P^2", "P^3", "P^1 x P^2", "F_1", "F_3", "point", "standard 3-cone"])


def pair_of(v: TVB) -> tuple[int, ...]:
    cones = v.fan.max_cones
    return cones[0].ray_indices[:2] if cones else ()


def assert_same_space(got: Subspace, want: Subspace) -> None:
    assert got == want
    assert got.pivots == want.pivots


def assert_routes_match(v: TVB) -> bool:
    """Both paths, and ``filtered_endos``, against the reference; True when
    the permutation path applies."""
    want = reference_filtered_endos(v)
    assert_same_space(filtered_endos(v).space, want)
    pair = pair_of(v)
    assert_same_space(_solve_adapted(v, pair, *_piece_basis(v, pair)), want)
    levels, basis = _adapted_basis(v, pair)
    if basis is None:
        assert_same_space(_solve_adapted(v, pair, levels, None), want)
    return basis is None


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(sorted(FANS)), st.integers(1, 5))
def test_route_matches_reference_on_random_bundles(rng, fan_name, r):
    assert_routes_match(random_bundle(rng, FANS[fan_name], r))


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(sorted(FANS)), st.integers(1, 5),
       st.sampled_from(["coordinate", "generic third ray", "generic first ray"]))
def test_route_matches_reference_on_coordinate_bundles(rng, fan_name, r, kind):
    fan = FANS[fan_name]
    generic = {"coordinate": (), "generic third ray": (2,), "generic first ray": (0,)}[kind]
    v = coordinate_bundle(rng, fan, r, generic)
    permutation = assert_routes_match(v)
    if not set(generic) & set(pair_of(v)):  # a random filtration may be coordinate too
        assert permutation


def test_seeded_bundles_cover_both_paths_and_both_verdicts():
    rng = random.Random(26)
    seen = Counter()
    for trial in range(240):
        fan = FANS[sorted(FANS)[trial % len(FANS)]]
        r = rng.randint(1, 5)
        if trial % 3:
            v = random_bundle(rng, fan, r)
        else:
            v = coordinate_bundle(rng, fan, r, (2,) if trial % 2 else ())
        seen["permutation" if assert_routes_match(v) else "pieces"] += 1
        seen[is_vector_bundle(v).status] += 1
    assert min(seen.values()) >= 20, seen


def test_line_sums_take_the_permutation_path():
    for twists in ([0, 1], [0, 1, 2, 3, 4, 5], [0, 0, 0, 0], [0, 0, 1, 1, 2], [2, -1, 0]):
        v = line_sum(fan_pn(2), twists)
        assert _adapted_basis(v, pair_of(v))[1] is None
        assert assert_routes_match(v)


def test_line_sum_makes_no_elimination(monkeypatch):
    v = line_sum(fan_pn(2), [0, 1, 2])
    calls = []
    rref = linalg._rref_rows
    monkeypatch.setattr(linalg, "_rref_rows", lambda rows: calls.append(rows) or rref(rows))
    alg = filtered_endos(v)
    assert calls == []
    assert alg.dim == 6  # the upper triangular matrices


def test_generic_flags_take_the_pieces_path():
    rng = random.Random(4)
    fan = fan_pn(2)
    flags = [random_invertible(rng, 4).rows for _ in fan.rays]
    v = TVB(fan, 4, tuple(Filtration(4, [(j, Subspace(4, rows[j + 1:])) for j in range(4)])
                          for rows in flags))
    levels, basis = _adapted_basis(v, pair_of(v))
    assert basis is not None and len(basis) == len(levels) == 4
    assert not assert_routes_match(v)
