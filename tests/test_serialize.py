"""File schemas: round-trips, canonicalization of loose input, error reporting."""

import json

import pytest

from toric_cohiggs import Mat, Subspace, field_from_vector_field
from toric_cohiggs.errors import SchemaError
from toric_cohiggs.serialize import (
    bundle_from_obj,
    bundle_to_obj,
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


def test_mat_from_obj_validates_shape():
    with pytest.raises(SchemaError):
        mat_from_obj([["1", "2"], ["3"]])
    with pytest.raises(SchemaError):
        mat_from_obj([["1"]], nrows=2, ncols=1)
    with pytest.raises(SchemaError):
        mat_from_obj([["x"]])


@pytest.mark.parametrize(
    "breakage",
    [
        lambda o: o.pop("rank"),
        lambda o: o.update(rank=0),
        lambda o: o["filtrations"].pop(),
        lambda o: o["filtrations"][0].update(ray=99),
        lambda o: o["filtrations"][0]["steps"][0].update(j="zero"),
        lambda o: o["fan"].update(max_cones=[]),
        lambda o: o["fan"].update(max_cones=[[0, 7]]),
        # a string row would otherwise be read digit by digit, as (1, 0)
        lambda o: o["filtrations"][0]["steps"][0].update(basis=["10"]),
    ],
)
def test_bundle_schema_violations_raise(bundle_zoo, breakage):
    obj = bundle_to_obj(bundle_zoo["tangent_pn2"])
    breakage(obj)
    with pytest.raises(SchemaError):
        bundle_from_obj(obj)


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
