"""``Record`` against ``@dataclass(frozen=True)``.

Every record class of the package is compared with a frozen dataclass twin
built from the same annotations, defaults, name and ``__post_init__``, on
values taken from a sample that the library itself produced.
"""

import dataclasses
import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from toric_cohiggs import (
    TVB,
    Fan,
    Incompatible,
    ToricCoHiggsField,
    adapted_basis_oracle,
    canonical_pair,
    chart_expansion,
    classify,
    cone_grading,
    direct_sum,
    equivariant_chern_data,
    fan_pn,
    filtered_endos,
    is_vector_bundle,
    line_bundle,
    tuple_variety_equations,
    validate_fan,
    validate_field,
    verify_integrability,
)
from toric_cohiggs.bundles import OracleVerdict
from toric_cohiggs.records import Record

ROOT = Path(__file__).resolve().parents[1]


def _samples() -> dict[type, Record]:
    fan = fan_pn(2)
    cone = fan.max_cones[0]
    bundle, mats = canonical_pair(fan)
    field = ToricCoHiggsField(bundle, mats)
    lines = direct_sum(line_bundle(fan, 0), line_bundle(fan, 1))
    alg = filtered_endos(lines)
    found = [
        cone, fan, validate_fan(fan), bundle.filts[0], bundle, cone_grading(bundle, cone),
        Incompatible(cone, 3, 2), adapted_basis_oracle(bundle, cone),
        OracleVerdict(False, "forced multiplicities sum to 3, expected rank 2"),
        is_vector_bundle(bundle), equivariant_chern_data(bundle), field,
        validate_field(field), chart_expansion(field, cone), verify_integrability(field),
        classify(lines), alg, tuple_variety_equations(alg, 2),
    ]
    return {type(x): x for x in found}


SAMPLES = _samples()
CLASSES = sorted(SAMPLES, key=lambda c: c.__qualname__)


def record_classes(base=Record) -> set[type]:
    """The package's subclasses of ``base``, at any depth."""
    out = set()
    for sub in base.__subclasses__():
        if sub.__module__.startswith("toric_cohiggs."):
            out.add(sub)
        out |= record_classes(sub)
    return out


def public_fields(cls) -> list[str]:
    return [f for f in vars(cls).get("__annotations__", {}) if not f.startswith("_")]


@functools.cache
def twin(cls):
    """A frozen dataclass with ``cls``'s fields, defaults, name and ``__post_init__``."""
    fields = public_fields(cls)
    ns = {"__annotations__": {f: vars(cls)["__annotations__"][f] for f in fields},
          "__qualname__": cls.__qualname__, "__module__": cls.__module__}
    ns.update({f: getattr(cls, f) for f in fields if hasattr(cls, f)})
    if "__post_init__" in vars(cls):
        ns["__post_init__"] = vars(cls)["__post_init__"]
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), ns))


def sample_args(cls) -> list:
    return [getattr(SAMPLES[cls], f) for f in public_fields(cls)]


def field_values(x, fields) -> tuple:
    return tuple(getattr(x, f) for f in fields)


ids = pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__qualname__)


def test_every_record_class_has_a_sample():
    assert set(SAMPLES) == record_classes()
    assert all(cls._fields == tuple(public_fields(cls)) for cls in SAMPLES)


@ids
def test_construction_and_defaults_match_dataclass(cls):
    fields, args, tw = public_fields(cls), sample_args(cls), twin(cls)
    rec = cls(*args)
    assert field_values(rec, fields) == field_values(tw(*args), fields)
    assert cls(**dict(zip(fields, args))) == rec
    assert cls(args[0], **dict(zip(fields[1:], args[1:]))) == rec
    required = [f for f in fields if not hasattr(cls, f)]
    assert required == fields[:len(required)]
    short = args[:len(required)]
    assert field_values(cls(*short), fields) == field_values(tw(*short), fields)


@ids
def test_missing_unknown_repeated_and_extra_fields_raise_type_error(cls):
    fields, args = public_fields(cls), sample_args(cls)
    calls = {
        fields[0]: lambda c: c(**dict(zip(fields[1:], args[1:]))),
        "nope": lambda c: c(*args, nope=1),
        f"{fields[0]}'": lambda c: c(*args, **{fields[0]: args[0]}),
        "arguments": lambda c: c(*args, None),
    }
    for name, call in calls.items():
        with pytest.raises(TypeError):
            call(twin(cls))
        with pytest.raises(TypeError, match=name):
            call(cls)
    with pytest.raises(TypeError):
        cls()


@ids
def test_equality_and_hash_match_dataclass(cls):
    fields, args, tw = public_fields(cls), sample_args(cls), twin(cls)
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(tw(*args))
    assert a != tw(*args) and a != tuple(args)
    assert all(a != other for other in SAMPLES.values() if type(other) is not cls)
    for f in fields:  # equality reads every field
        changed = object.__new__(cls)
        changed.__dict__.update(zip(fields, args), **{f: object()})
        assert a != changed and changed != a


@ids
def test_repr_matches_dataclass(cls):
    args = sample_args(cls)
    assert repr(cls(*args)) == repr(twin(cls)(*args))


@ids
def test_setattr_and_delattr_raise_attribute_error(cls):
    args = sample_args(cls)
    for x in (cls(*args), twin(cls)(*args)):
        for name in public_fields(cls) + ["extra"]:
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)


@ids
def test_private_attributes_stay_out_of_equality_hash_and_repr(cls):
    args = sample_args(cls)
    a, b = cls(*args), cls(*args)
    for key in [k for k in vars(a) if k.startswith("_")] + ["_extra"]:
        a.__dict__[key] = object()
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


def test_caches_set_in_post_init_are_private_attributes():
    fan, bundle = SAMPLES[Fan], SAMPLES[TVB]
    assert any(fan._duals.values()) and bundle._values  # filled while the samples were computed
    fresh_fan = Fan(fan.n, fan.rays, fan.max_cones)
    fresh_bundle = TVB(fresh_fan, bundle.r, bundle.filts)
    assert fresh_fan._duals == dict.fromkeys(c.ray_indices for c in fan.max_cones)
    assert fresh_bundle._values == {}
    assert fresh_fan == fan and hash(fresh_fan) == hash(fan) and repr(fresh_fan) == repr(fan)
    assert fresh_bundle == bundle and repr(fresh_bundle) == repr(bundle)


@ids
def test_post_init_runs_exactly_once_after_every_field_is_set(cls, monkeypatch):
    fields, args = public_fields(cls), sample_args(cls)
    original, seen = cls.__post_init__, []

    def counting(self):
        seen.append((self, all(f in vars(self) for f in fields)))
        original(self)

    monkeypatch.setattr(cls, "__post_init__", counting)
    for build in (lambda: cls(*args), lambda: cls(**dict(zip(fields, args)))):
        seen.clear()
        rec = build()
        assert len(seen) == 1 and seen[0][0] is rec and seen[0][1]


CACHED = [(cls, name) for cls in CLASSES for k in cls.__mro__ for name, attr in vars(k).items()
          if isinstance(attr, functools.cached_property)]


@pytest.mark.parametrize("cls,name", CACHED, ids=[f"{c.__qualname__}.{n}" for c, n in CACHED])
def test_cached_property_caches_in_the_instance(cls, name):
    rec = cls(*sample_args(cls))
    before = (hash(rec), repr(rec))
    got = getattr(rec, name)
    assert vars(rec)[name] is got and getattr(rec, name) is got
    assert (hash(rec), repr(rec)) == before and rec == cls(*sample_args(cls))


def test_cached_properties_are_covered():
    assert {c.__qualname__ for c, _ in CACHED} >= {
        "Filtration", "FilteredEndAlgebra", "ToricCoHiggsField"}


def test_fields_are_inherited_and_single_field_hashes_as_dataclass():
    class Base(Record):
        a: int
        _hidden: int
        b: int = 2

    class Child(Base):
        c: int = 3

    class One(Record):
        x: int

    assert Child._fields == ("a", "b", "c")
    assert repr(Child(1)).endswith("Child(a=1, b=2, c=3)")
    assert Child(1, c=4) != Base(1) and Child(1, 2, 3) == Child(a=1, b=2, c=3)

    @dataclasses.dataclass(frozen=True)
    class OneTwin:
        x: int

    assert hash(One(5)) == hash(OneTwin(5)) == hash((5,))
    assert One(5) == One(5) and One(5) != One(6) and One(5) != 5


def test_fresh_interpreter_imports_neither_dataclasses_nor_inspect():
    code = ("import sys, toric_cohiggs.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
