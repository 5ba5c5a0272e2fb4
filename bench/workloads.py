"""Seeded inputs for the benchmark workloads.

Every input is first built as a plain model (the fan, the rank and, per ray,
the filtration steps) and only then written out as a bundle or field file.
The output checks in ``checks.py`` compare the program's reports against
these models, never against the program's own parse of the files.

Filtration steps follow the bundle file schema: ``(j, basis)`` means the
filtration value on ``(j, next threshold]`` is spanned by ``basis``; below
the first threshold the value is the whole space, and the last step is zero.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

from checks import rank

# Why each workload was chosen is recorded in BENCHMARK.json; which layer
# metric should move which end-to-end metric is in run.py's docstring.
WORKLOADS = ("check_ladder", "classify_ladder", "random_mix")

MIX_RANKS = (3, 4, 5, 6)
MIX_ENTRY = 3  # basis entries are drawn from [-MIX_ENTRY, MIX_ENTRY]
MIX_LEVELS = tuple(range(-2, 3))  # thresholds are drawn from [-2, 2]
# Every ray gets exactly min(rank, MIX_DISTINCT) distinct thresholds, which
# bounds the size of the grid walk.
MIX_DISTINCT = 3


@dataclass(frozen=True)
class Bundle:
    """A bundle model: ``steps[ray]`` is ``((j, (vector, ...)), ...)``."""

    fan: dict
    rank: int
    steps: tuple


@dataclass(frozen=True)
class Op:
    """One CLI verb call and what is known about its answer in advance.

    ``compatible`` is True for bundles built compatible; ``dim_h`` is the
    known endomorphism-algebra dimension of a classify input; ``mats`` is the
    field tuple of a validate-field input.
    """

    op_id: str
    verb: str
    file: str
    bundle: Bundle
    compatible: bool = False
    dim_h: int | None = None
    mats: tuple | None = None


@dataclass(frozen=True)
class Workload:
    ops: tuple[Op, ...]
    files: dict  # file name -> JSON object

    def write(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for name, obj in self.files.items():
            (directory / name).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# fans and filtrations

def fan_pn(n: int) -> dict:
    rays = [[int(i == j) for j in range(n)] for i in range(n)] + [[-1] * n]
    cones = [list(c) for c in itertools.combinations(range(n + 1), n)]
    return {"n": n, "rays": rays, "max_cones": cones}


def fan_product(f: dict, g: dict) -> dict:
    rays = [r + [0] * g["n"] for r in f["rays"]]
    rays += [[0] * f["n"] + r for r in g["rays"]]
    shift = len(f["rays"])
    cones = [cf + [i + shift for i in cg] for cf in f["max_cones"] for cg in g["max_cones"]]
    return {"n": f["n"] + g["n"], "rays": rays, "max_cones": cones}


VARIETIES = {
    "p2": fan_pn(2),
    "p1xp2": fan_product(fan_pn(1), fan_pn(2)),
    "p3": fan_pn(3),
}


def adapted_steps(basis, thresholds) -> tuple:
    """Steps of the filtration F(i) = span{basis[k] : thresholds[k] >= i}."""
    steps = []
    for t in sorted(set(thresholds)):
        kept = tuple(tuple(b) for b, tb in zip(basis, thresholds) if tb > t)
        steps.append((t, kept))
    return tuple(steps)


def unit(r: int, k: int) -> tuple:
    return tuple(int(i == k) for i in range(r))


def tangent(fan: dict) -> Bundle:
    steps = tuple(((0, (tuple(ray),)), (1, ())) for ray in fan["rays"])
    return Bundle(fan, fan["n"], steps)


def tangent_plus_o1(fan: dict) -> Bundle:
    """T ⊕ O(D_0): the line summand has threshold 1 at ray 0 and 0 elsewhere."""
    n = fan["n"]
    line = unit(n + 1, n)
    steps = []
    for idx, ray in enumerate(fan["rays"]):
        value = (tuple(ray) + (0,),) + ((line,) if idx == 0 else ())
        steps.append(((0, value), (1, ())))
    return Bundle(fan, n + 1, tuple(steps))


def line_sum(fan: dict, twists) -> Bundle:
    """O(a_1 D_0) ⊕ ... ⊕ O(a_k D_0): the twists sit on ray 0."""
    k = len(twists)
    basis = [unit(k, i) for i in range(k)]
    steps = [adapted_steps(basis, twists)]
    steps += [adapted_steps(basis, [0] * k) for _ in fan["rays"][1:]]
    return Bundle(fan, k, tuple(steps))


def line_sum_dim_h(twists) -> int:
    """dim of the filtered endomorphisms of a line sum: #{(i, j): a_i >= a_j}."""
    return sum(1 for a in twists for b in twists if a >= b)


# ---------------------------------------------------------------------------
# random inputs

def random_basis(rng: random.Random, r: int) -> list[tuple]:
    while True:
        basis = [tuple(rng.randint(-MIX_ENTRY, MIX_ENTRY) for _ in range(r)) for _ in range(r)]
        if rank(basis) == r:
            return basis


def random_thresholds(rng: random.Random, r: int) -> list[int]:
    levels = rng.sample(MIX_LEVELS, min(r, MIX_DISTINCT))
    out = levels + [rng.choice(levels) for _ in range(r - len(levels))]
    rng.shuffle(out)
    return out


def compatible_bundle(rng: random.Random, pattern: random.Random, fan: dict, r: int) -> Bundle:
    """One basis adapted to every ray: compatible on every cone by construction."""
    basis = random_basis(rng, r)
    steps = tuple(adapted_steps(basis, random_thresholds(pattern, r)) for _ in fan["rays"])
    return Bundle(fan, r, steps)


def perturbed(rng: random.Random, pattern: random.Random, bundle: Bundle) -> Bundle:
    """The same bundle with the last ray's filtration replaced by a random one.

    Always the last ray, so that the first cone on which the check can fail,
    and with it the work done before failing, does not vary by seed.
    """
    r = bundle.rank
    last = adapted_steps(random_basis(rng, r), random_thresholds(pattern, r))
    return Bundle(bundle.fan, r, bundle.steps[:-1] + (last,))


def scalar_tuple(rng: random.Random, n: int, r: int) -> tuple:
    return tuple(
        tuple(tuple(c * int(i == j) for j in range(r)) for i in range(r))
        for c in (rng.randint(-3, 3) for _ in range(n))
    )


def random_tuple(rng: random.Random, n: int, r: int) -> tuple:
    return tuple(
        tuple(tuple(rng.randint(-2, 2) for _ in range(r)) for _ in range(r))
        for _ in range(n)
    )


# ---------------------------------------------------------------------------
# files

def bundle_obj(b: Bundle) -> dict:
    return {
        "fan": b.fan,
        "rank": b.rank,
        "filtrations": [
            {"ray": i, "steps": [{"j": j, "basis": [[str(x) for x in v] for v in basis]}
                                 for j, basis in steps]}
            for i, steps in enumerate(b.steps)
        ],
    }


def field_obj(bundle_file: str, mats) -> dict:
    return {"bundle": bundle_file, "tuple": [[[str(x) for x in row] for row in m] for m in mats]}


# ---------------------------------------------------------------------------
# workloads

def _check_ladder() -> Workload:
    ops, files = [], {}
    rungs = [(f"tangent_p{n}", tangent(fan_pn(n))) for n in range(2, 7)]
    rungs += [(f"tangent_o1_p{n}", tangent_plus_o1(fan_pn(n))) for n in range(2, 6)]
    for tag, bundle in rungs:
        name = f"{tag}.bundle.json"
        files[name] = bundle_obj(bundle)
        ops.append(Op(f"check/{tag}", "check", name, bundle, compatible=True))
    return Workload(tuple(ops), files)


def _classify_ladder() -> Workload:
    ops, files = [], {}
    fan = fan_pn(2)
    rungs = [(f"lines_k{k}", list(range(k))) for k in range(2, 7)]
    rungs += [(f"trivial_k{k}", [0] * k) for k in range(2, 5)]
    for tag, twists in rungs:
        bundle = line_sum(fan, twists)
        name = f"{tag}.bundle.json"
        files[name] = bundle_obj(bundle)
        ops.append(Op(f"classify/{tag}", "classify", name, bundle,
                      compatible=True, dim_h=line_sum_dim_h(twists)))
    return Workload(tuple(ops), files)


def _random_mix(seed: int) -> Workload:
    """Bases, the perturbing filtrations and the field tuples come from the seed.

    The threshold pattern of each (variety, rank) comes from a generator of
    its own that ignores the seed: which grid points are nonzero, and so how
    long the grid walk takes, depends on the thresholds far more than on the
    bases, and a pass should take about as long on every seed.
    """
    rng = random.Random(f"random_mix/{seed}")
    ops, files = [], {}
    for variety, fan in VARIETIES.items():
        for r in MIX_RANKS:
            pattern = random.Random(f"random_mix/thresholds/{variety}/{r}")
            base = compatible_bundle(rng, pattern, fan, r)
            for kind, bundle in (("compatible", base), ("perturbed", perturbed(rng, pattern, base))):
                tag = f"{variety}-r{r}-{kind}"
                name = f"{tag}.bundle.json"
                files[name] = bundle_obj(bundle)
                ops.append(Op(f"check/{tag}", "check", name, bundle,
                              compatible=kind == "compatible"))
                for tkind, make in (("scalar", scalar_tuple), ("random", random_tuple)):
                    mats = make(rng, fan["n"], r)
                    fname = f"{tag}-{tkind}.field.json"
                    files[fname] = field_obj(name, mats)
                    ops.append(Op(f"validate-field/{tag}-{tkind}", "validate-field",
                                  fname, bundle, mats=mats))
    return Workload(tuple(ops), files)


def build(name: str, seed: int) -> Workload:
    """The workload's inputs; only random_mix depends on the seed."""
    if name == "check_ladder":
        return _check_ladder()
    if name == "classify_ladder":
        return _classify_ladder()
    if name == "random_mix":
        return _random_mix(seed)
    raise ValueError(f"unknown workload {name!r}")
