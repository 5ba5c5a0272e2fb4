"""File schemas: round-trips, canonicalization of loose input, error reporting,
and the single conversion of each value on the way in and on the way out."""

import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_bundle, select_fans
from reference import line_sum, ref_classification_obj, subspace_text
from toric_cohiggs import (
    Mat,
    Subspace,
    classify,
    cli,
    endalg,
    fan_pn,
    fan_product,
    field_from_vector_field,
    linalg,
    serialize,
    tangent_bundle,
)
from toric_cohiggs.errors import SchemaError
from toric_cohiggs.serialize import (
    bundle_from_obj,
    bundle_to_obj,
    classification_to_obj,
    dumps_canonical,
    fan_from_obj,
    fan_to_obj,
    field_from_obj,
    field_to_obj,
    load_bundle,
    load_field,
    mat_from_obj,
    mat_to_obj,
    save_json,
    subspace_to_obj,
)


def test_fan_roundtrip_is_byte_identical(fan_zoo):
    for fan in fan_zoo.values():
        text = dumps_canonical(fan_to_obj(fan))
        again = dumps_canonical(fan_to_obj(fan_from_obj(json.loads(text))))
        assert again == text


def test_bundle_roundtrip_is_byte_identical(bundle_zoo):
    for v in bundle_zoo.values():
        text = dumps_canonical(bundle_to_obj(v))
        parsed = bundle_from_obj(json.loads(text))
        assert parsed == v
        assert dumps_canonical(bundle_to_obj(parsed)) == text


def test_field_roundtrip_is_byte_identical(bundle_zoo):
    for key in ("tangent_pn2", "sum_p1xp1"):
        v = bundle_zoo[key]
        field = field_from_vector_field(v, list(range(1, v.fan.n + 1)))
        text = dumps_canonical(field_to_obj(field))
        parsed = field_from_obj(json.loads(text))
        assert parsed == field
        assert dumps_canonical(field_to_obj(parsed)) == text


def test_non_canonical_basis_is_canonicalized(tmp_path):
    obj = {
        "fan": {"n": 1, "rays": [[1], [-1]], "max_cones": [[0], [1]]},
        "rank": 2,
        "filtrations": [
            {"ray": 0, "steps": [{"j": 0, "basis": [["2", "2"], ["1", "1"]]}]},
            {"ray": 1, "steps": [{"j": 0, "basis": [["0", "1/3"]]}]},
        ],
    }
    v = bundle_from_obj(obj)
    assert v.filts[0].steps[0][1] == Subspace(2, [(1, 1)])
    assert v.filts[1].steps[0][1] == Subspace(2, [(0, 1)])
    # zero step appended at threshold 1
    assert v.filts[0].thresholds == (0, 1)


def test_bundle_file_with_fan_path(tmp_path, fan_zoo):
    fan = fan_zoo["pn2"]
    save_json(tmp_path / "fan.json", fan_to_obj(fan))
    obj = {
        "fan": "fan.json",
        "rank": 1,
        "filtrations": [
            {"ray": i, "steps": [{"j": 0, "basis": []}]} for i in range(3)
        ],
    }
    save_json(tmp_path / "bundle.json", obj)
    v = load_bundle(tmp_path / "bundle.json")
    assert v.fan == fan
    assert v.r == 1


def test_field_file_with_bundle_path(tmp_path, bundle_zoo):
    v = bundle_zoo["tangent_pn2"]
    save_json(tmp_path / "bundle.json", bundle_to_obj(v))
    obj = {
        "bundle": "bundle.json",
        "tuple": [mat_to_obj(Mat.identity(2)), mat_to_obj(Mat.identity(2).scale(2))],
    }
    save_json(tmp_path / "field.json", obj)
    field = load_field(tmp_path / "field.json")
    assert field.bundle == v
    assert field.mats[1] == Mat.identity(2).scale(2)


@pytest.mark.parametrize("absolute", [False, True])
def test_nested_paths_resolve_from_the_file_that_names_them(tmp_path, bundle_zoo, capsys,
                                                            absolute):
    # field.json names sub/bundle.json, whose fan is ../fans/fan.json
    v, top = bundle_zoo["tangent_pn2"], tmp_path / "top"
    (top / "sub").mkdir(parents=True)
    (top / "fans").mkdir()
    save_json(top / "fans" / "fan.json", fan_to_obj(v.fan))
    bundle_obj = bundle_to_obj(v)
    bundle_obj["fan"] = str(top / "fans" / "fan.json") if absolute else "../fans/fan.json"
    save_json(top / "sub" / "bundle.json", bundle_obj)
    save_json(top / "field.json", {
        "bundle": str(top / "sub" / "bundle.json") if absolute else "sub/bundle.json",
        "tuple": [mat_to_obj(Mat.identity(2)), mat_to_obj(Mat.identity(2).scale(2))],
    })
    field = load_field(top / "field.json")
    assert field.bundle == v and field.mats[1] == Mat.identity(2).scale(2)
    assert cli.main(["validate-field", str(top / "field.json"), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True


def test_mat_from_obj_validates_shape():
    with pytest.raises(SchemaError):
        mat_from_obj([["1", "2"], ["3"]])
    with pytest.raises(SchemaError, match="^bad matrix: a matrix with no rows needs an explicit"):
        mat_from_obj([])
    with pytest.raises(SchemaError):
        mat_from_obj([["x"]])


# Each breakage of the tangent bundle of P^2, with the exact message it raises.
SCHEMA_BREAKAGES = [
    (lambda o: o.pop("rank"), "bundle object lacks key 'rank'"),
    (lambda o: o.update(rank=0), "'rank' must be a positive integer"),
    (lambda o: o["filtrations"].pop(), "no filtration given for ray 2"),
    (lambda o: o["filtrations"][0].update(ray=99), "filtration ray index 99 out of range"),
    (lambda o: o["filtrations"][0]["steps"][0].update(j="zero"),
     "bad filtration for ray 0: threshold 'zero' is not an integer"),
    (lambda o: o["fan"].update(max_cones=[0, 1]), "fan 'max_cones' must be a list of lists"),
    # a string ray would otherwise be read character by character
    (lambda o: o["fan"]["rays"].__setitem__(0, "10"), "fan 'rays' must be a list of lists"),
    # a string row would otherwise be read digit by digit, as (1, 0)
    (lambda o: o["filtrations"][0]["steps"][0].update(basis=["10"]),
     "step basis must be a list of rows"),
    (lambda o: o["filtrations"][0].update(ray=-1), "filtration ray index -1 out of range"),
    (lambda o: o["filtrations"][0].update(ray="0"),
     "filtration 'ray' must be an integer, got '0'"),
    (lambda o: o["filtrations"][1].update(ray=0), "two filtrations for ray 0"),
    (lambda o: o["filtrations"][0].update(steps=[]),
     "bad filtration for ray 0: a filtration needs at least one step"),
    (lambda o: o["fan"]["rays"].__setitem__(0, [1, "0"]),
     "bad fan: ray entry '0' is not an integer"),
    (lambda o: o["fan"].update(max_cones=[[0, "1"]]),
     "bad fan: cone index '1' is not an integer"),
    (lambda o: o["filtrations"][0]["steps"][0].update(basis=[[1.0, 0]]),
     "bad step basis for ray 0: entry 1.0 is not an integer or a 'p/q' string"),
    (lambda o: o["filtrations"][0]["steps"][0].update(basis=[["1/0", "0"]]),
     "bad step basis for ray 0: not a rational: '1/0'"),
    (lambda o: o["filtrations"][0].update(steps={"j": 0}),
     "filtration 'steps' for ray 0 must be a list"),
    (lambda o: o["filtrations"][0].update(steps="0"),
     "filtration 'steps' for ray 0 must be a list"),
    (lambda o: o["fan"]["max_cones"].__setitem__(0, [1, 1]),
     "bad fan: duplicate ray indices in cone (1, 1)"),
]


@pytest.mark.parametrize("breakage", [breakage for breakage, _ in SCHEMA_BREAKAGES])
def test_bundle_schema_violations_raise(bundle_zoo, breakage):
    obj = bundle_to_obj(bundle_zoo["tangent_pn2"])
    breakage(obj)
    with pytest.raises(SchemaError) as info:
        bundle_from_obj(obj)
    assert str(info.value) == dict(SCHEMA_BREAKAGES)[breakage]


def test_tuple_length_must_match_lattice_rank(bundle_zoo):
    obj = field_to_obj(
        field_from_vector_field(bundle_zoo["tangent_pn2"], [1, 2])
    )
    obj["tuple"].append(obj["tuple"][0])
    with pytest.raises(SchemaError):
        field_from_obj(obj)


def test_non_monotone_filtration_is_a_schema_error():
    for steps, reason in [
        ([(0, [["1", "0"]]), (1, [["0", "1"]])], "subspaces are not decreasing along thresholds"),
        # the full step is dropped from the stored filtration, not from the check
        ([(0, [["1", "0"]]), (1, [["1", "0"], ["0", "1"]]), (2, [])],
         "subspaces are not decreasing along thresholds"),
        ([(0, [["1", "0"]]), (0, [["0", "1"]])], "two different subspaces at threshold 0"),
    ]:
        obj = {
            "fan": {"n": 1, "rays": [[1], [-1]], "max_cones": [[0], [1]]},
            "rank": 2,
            "filtrations": [
                {"ray": 1, "steps": [{"j": j, "basis": basis} for j, basis in steps]},
                {"ray": 0, "steps": [{"j": 0, "basis": []}]},
            ],
        }
        with pytest.raises(SchemaError) as info:
            bundle_from_obj(obj)
        assert str(info.value) == f"bad filtration for ray 1: {reason}"


def test_dumps_canonical_is_sorted_and_newline_terminated():
    text = dumps_canonical({"b": 1, "a": [2, {"d": 3, "c": 4}]})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert text.index('"c"') < text.index('"d"')


def test_sparse_forms_render_as_the_reference_dense_forms():
    from reference import line_sum, ref_forms

    from toric_cohiggs import fan_pn, filtered_endos, tuple_variety_equations
    from toric_cohiggs.serialize import tuple_eqs_to_obj

    alg = filtered_endos(line_sum(fan_pn(2), [0, 0, 1, 2]))
    forms = tuple_eqs_to_obj(tuple_variety_equations(alg, 2))["forms"]
    assert forms == [mat_to_obj(f) for f in ref_forms(alg)]
    zero_rows = [row for form in forms for row in form if set(row) == {"0"}]
    assert zero_rows and all(row is zero_rows[0] for row in zero_rows)


def test_mat_to_obj_writes_zero_cells_as_zero():
    m = Mat([[0, "-1/2"], ["3", 0]])
    assert mat_to_obj(m) == [["0", "-1/2"], ["3", "0"]]


# ---------------------------------------------------------------------------
# one conversion each way

entries = st.integers(-9, 9) | st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def subspaces(draw):
    n = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=n + 1))
    return Subspace(n, rows)


@settings(max_examples=400, deadline=None)
@given(subspaces())
@example(Subspace(4, [(0, 4, -6, 2), (0, 0, 0, 0)]))  # integer row (0, 2, -3, 1): pivot 2
@example(Subspace(3, [(-3, 0, 5), (0, -7, 1)]))
@example(Subspace(0, []))
def test_subspace_to_obj_matches_the_fraction_basis_text(s):
    assert subspace_to_obj(s) == subspace_text(s)


def test_subspace_to_obj_divides_by_a_non_unit_pivot():
    s = Subspace(4, [(0, 4, -6, 2)])
    assert s.rows == ((0, 2, -3, 1),)
    assert subspace_to_obj(s) == [["0", "1", "-3/2", "1/2"]]


def _counting(monkeypatch, module, name: str, calls: list):
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("name", ["tangent_pn3", "tangent_hirz3", "sum_hirz2", "three_lines"])
def test_loading_converts_each_entry_once(bundle_zoo, monkeypatch, name):
    obj = json.loads(dumps_canonical(bundle_to_obj(bundle_zoo[name])))
    bases = [step["basis"] for f in obj["filtrations"] for step in f["steps"]]
    rrefs, int_rows, parses = [], [], []
    _counting(monkeypatch, linalg, "_rref_rows", rrefs)
    _counting(monkeypatch, linalg, "_integer_row", int_rows)
    _counting(monkeypatch, serialize, "_rational_pair", parses)
    for _ in range(2):  # nothing is remembered from one load to the next
        for calls in (rrefs, int_rows, parses):
            calls.clear()
        assert bundle_from_obj(obj) == bundle_zoo[name]
        # one elimination per step basis; an empty one returns at once
        assert [len(rows) for (rows,) in rrefs if rows] == [len(b) for b in bases if b]
        assert len(rrefs) == len(bases)
        # each row becomes an integer row once, each distinct string is parsed once
        assert len(int_rows) == sum(map(len, bases))
        distinct = {a for b in bases for row in b for a in row}
        assert sorted(a for (a,) in parses) == sorted(distinct)


def test_matrix_entries_are_parsed_once_to_the_fractions_mat_keeps(monkeypatch):
    parses = []
    _counting(monkeypatch, serialize, "_rational_pair", parses)
    for _ in range(2):  # nothing is remembered from one load to the next
        parses.clear()
        m = mat_from_obj([["1/2", "0", 3], ["0", "1/2", "-1"]])
        assert sorted(a for (a,) in parses) == ["-1", "0", "1/2"]
        assert all(type(a) is Fraction for row in m.rows for a in row)
        assert m.rows[0][0] is m.rows[1][1] and m.rows[0][1] is m.rows[1][0]


def test_check_never_builds_a_fraction_basis(bundle_zoo, tmp_path, monkeypatch, capsys):
    built = []
    fget = Subspace.basis.fget
    monkeypatch.setattr(Subspace, "basis", property(lambda s: built.append(s) or fget(s)))
    for name in ("tangent_pn3", "sum_hirz2", "three_lines"):
        path = tmp_path / f"{name}.json"
        save_json(path, bundle_to_obj(bundle_zoo[name]))
        for fmt in ("json", "text"):
            assert cli.main(["check", str(path), "--format", fmt]) == 0
            assert ("basis" in capsys.readouterr().out) == (name != "three_lines")
    assert built == []


# ---------------------------------------------------------------------------
# classification and algebra reports from integers

GOLDEN_BUNDLE = Path(__file__).parent / "golden" / "fractional_p1xp2" / "bundle.json"
REPORT_FANS = tuple(select_fans(["P^1", "standard 1-cone", "P^2", "standard 2-cone",
                                 "P^1 x P^1", "standard 3-cone"]).values())


def assert_renders_as_the_mat_path(v):
    """The report written from integers is byte-equal to the one written from
    the report's ``Mat`` accessors and the reference center and forms."""
    report = classify(v)
    text = dumps_canonical(classification_to_obj(report))
    assert text == dumps_canonical(ref_classification_obj(report))
    return report


@settings(max_examples=120, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(REPORT_FANS), st.integers(1, 4))
def test_classification_report_renders_as_the_mat_path(rng, fan, r):
    assert_renders_as_the_mat_path(random_bundle(rng, fan, r))


def test_rendered_reports_cover_scaled_rows_both_kinds_of_algebra_and_n_1():
    rng = random.Random(97)
    seen = Counter()
    for _ in range(60):
        fan = rng.choice(REPORT_FANS)
        report = assert_renders_as_the_mat_path(random_bundle(rng, fan, rng.randint(1, 4)))
        alg, cen = report.algebra, report.center
        dens = alg._scales[0]
        seen["commutative" if report.commutative else "non-commutative"] += 1
        seen["n = 1, non-commutative"] += fan.n == 1 and not report.commutative
        # a basis row over a pivot entry d_a > 1, a center row over y[p]·L > 1,
        # and a form entry that stays a fraction after its gcd
        seen["d_a > 1"] += any(d > 1 for d in dens)
        seen["center over > 1"] += any(y[p] * alg._scales[1] > 1 for y, p in zip(cen.rows, cen.pivots))
        seen["fractional form"] += not report.commutative and fan.n > 1 and any(
            diff % (dens[a] * dens[b]) for a, b, _, diff in alg.differences)
    assert min(seen.values()) >= 5, seen
    assert len(seen) == 6


def test_golden_classification_renders_as_the_mat_path():
    report = assert_renders_as_the_mat_path(load_bundle(GOLDEN_BUNDLE))
    assert not report.commutative and classification_to_obj(report)["tuple_equations"]["forms"]


def test_reports_share_one_zero_row_per_matrix_size():
    report = classify(line_sum(fan_pn(2), [0, 1, 2]))
    obj = classification_to_obj(report)
    rows = [row for m in obj["basis"] + obj["center"] for row in m]
    zero_rows = [row for row in rows if set(row) == {"0"}]
    assert zero_rows and all(row is zero_rows[0] for row in zero_rows)
    form_rows = [row for form in obj["tuple_equations"]["forms"] for row in form]
    zero_form_rows = [row for row in form_rows if set(row) == {"0"}]
    assert zero_form_rows and all(row is zero_form_rows[0] for row in zero_form_rows)
    # a commutative algebra's generators hold one shared zero matrix
    tangent = tangent_bundle(fan_product(fan_pn(1), fan_pn(1)))
    gens = classification_to_obj(classify(tangent))["generators"]
    zeros = [m for gen in gens for m in gen if all(set(row) == {"0"} for row in m)]
    assert zeros and all(m is zeros[0] for m in zeros)


@pytest.mark.parametrize("verb", ["classify", "endalg"])
def test_algebra_reports_build_no_mat_and_no_fraction(verb, tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("called on the report path")

    paths = [GOLDEN_BUNDLE, tmp_path / "ladder.json", tmp_path / "commutative.json"]
    save_json(paths[1], bundle_to_obj(line_sum(fan_pn(2), [0, 1, 2, 2])))
    save_json(paths[2], bundle_to_obj(tangent_bundle(fan_product(fan_pn(1), fan_pn(1)))))
    for name in ("__init__", "_trusted"):
        monkeypatch.setattr(Mat, name, refuse)
    monkeypatch.setattr(endalg, "Fraction", refuse)
    monkeypatch.setattr(serialize, "rat_str", refuse)
    for path in paths:
        assert cli.main([verb, str(path), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["verb"] == verb
