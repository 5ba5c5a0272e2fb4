"""The report writers against the library's slow paths.

``serialize.dumps_canonical`` writes canonical JSON itself; it must equal
``json.dumps(obj, sort_keys=True, indent=2) + "\\n"`` byte for byte.  The text
format, ``cli._text_lines``, must equal the renderer it replaced, which called
``json.dumps`` once per scalar; that renderer is kept here as ``ref_text``.
Both writers are checked on drawn values and on a sweep of CLI reports (every
report verb, over seeded bundles and fields), each rendered both ways.
"""

from __future__ import annotations

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from toric_cohiggs import (
    Mat,
    TVB,
    ToricCoHiggsField,
    direct_sum,
    fan_hirzebruch,
    fan_pn,
    fan_product,
    line_bundle,
    tangent_bundle,
)
from toric_cohiggs import cli, serialize
from toric_cohiggs.serialize import dumps_canonical, scalar_json

from conftest import random_bundle, random_matrix, standard_cone_fan


def ref_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def ref_lines(obj, indent=0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for key in sorted(obj):
            val = obj[key]
            if isinstance(val, (dict, list)) and val:
                lines.append(f"{pad}{key}:")
                lines.extend(ref_lines(val, indent + 1))
            else:
                lines.append(f"{pad}{key}: {json.dumps(val)}")
    elif isinstance(obj, list):
        for val in obj:
            if isinstance(val, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(ref_lines(val, indent + 1))
            else:
                lines.append(f"{pad}- {json.dumps(val)}")
    else:
        lines.append(f"{pad}{json.dumps(obj)}")
    return lines


def ref_text(obj) -> str:
    return "\n".join(ref_lines(obj)) + "\n"


def text(obj) -> str:
    return "\n".join(cli._text_lines(obj)) + "\n"


# quotes, backslashes, control characters, separators JSON escapes, non-ASCII
strings = st.text(
    alphabet=st.characters() | st.sampled_from('"\\/\n\r\t\b\f\x00\x1f\x7f é中😀'),
    max_size=6,
)
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**30), max_value=10**30)
    | strings
    | st.floats()  # not a report value: exercises the library-encoder fallback
)


def _containers(children):
    # a list whose first item is a string or an int, though not every item is one
    mixed_row = st.tuples(strings | st.integers(), st.lists(children, min_size=1)).map(
        lambda p: [p[0], *p[1]]
    )
    return (
        st.lists(children, max_size=4)
        | st.lists(strings, max_size=4)
        # lists of ints are one chunk; a bool among them must stay a JSON bool
        | st.lists(st.integers(), max_size=4)
        | st.lists(st.booleans(), max_size=4)
        | st.lists(st.integers() | st.booleans(), max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | mixed_row
        | st.dictionaries(strings, children, max_size=4)
        | st.dictionaries(st.integers(-3, 3), children, max_size=2)
    )


values = st.recursive(scalars, _containers, max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(values)
def test_dumps_canonical_matches_json_dumps(obj):
    assert dumps_canonical(obj) == ref_json(obj)


@settings(max_examples=300, deadline=None)
@given(values)
def test_text_lines_match_per_value_json_dumps(obj):
    assert text(obj) == ref_text(obj)


# a grading piece of a check report: its u and basis rows are written in place
pieces = st.fixed_dictionaries({
    "u": st.lists(st.integers(), max_size=4),
    "basis": st.lists(st.lists(strings, max_size=4), max_size=3),
})


@settings(max_examples=200, deadline=None)
@given(pieces | st.lists(pieces, max_size=3) | st.dictionaries(strings, pieces, max_size=2))
def test_piece_shaped_values_match_json_dumps(obj):
    assert dumps_canonical(obj) == ref_json(obj)
    assert text(obj) == ref_text(obj)


@given(scalars | st.just([]) | st.just({}) | st.just(()))
def test_scalar_json_matches_json_dumps(x):
    assert scalar_json(x) == json.dumps(x)


def test_repeated_row_objects_render_at_each_depth():
    row = ["0", "1/2"]
    obj = {"a": [row, row], "b": [[row], row], "c": row}
    assert dumps_canonical(obj) == ref_json(obj)
    assert text(obj) == ref_text(obj)


def test_int_lists_keep_their_bools_and_tuples():
    obj = {"u": [1, -2, 0], "flags": [1, True, False], "t": (3, 4), "mixed": [0, "a", [5]]}
    assert dumps_canonical(obj) == ref_json(obj)
    assert text(obj) == ref_text(obj)


# ---------------------------------------------------------------------------
# sweep of CLI reports

def _sweep_fans():
    return [
        fan_pn(1),
        fan_pn(2),
        fan_product(fan_pn(1), fan_pn(1)),
        fan_hirzebruch(1),
        standard_cone_fan(2),
        standard_cone_fan(3),
    ]


def _sweep_bundle(rng: random.Random, fan) -> TVB:
    pick = rng.random()
    if pick < 0.6:
        return random_bundle(rng, fan, rng.randint(1, 4))
    twists = [rng.randint(-1, 2) for _ in range(rng.randint(1, 4))]
    v = line_bundle(fan, twists[0])
    for t in twists[1:]:
        v = direct_sum(v, line_bundle(fan, t))
    return direct_sum(v, tangent_bundle(fan)) if pick < 0.75 and fan.n <= 2 else v


def _sweep_field(rng: random.Random, v: TVB) -> ToricCoHiggsField:
    """Scalar tuples are valid fields; random tuples mostly are not."""
    if rng.random() < 0.4:
        mats = [Mat.identity(v.r).scale(rng.randint(-2, 2)) for _ in range(v.fan.n)]
    else:
        mats = [random_matrix(rng, v.r) for _ in range(v.fan.n)]
    return ToricCoHiggsField(v, tuple(mats))


def test_cli_reports_render_identically_both_ways(tmp_path, monkeypatch, capsys):
    reports = []
    monkeypatch.setattr(cli, "_emit", lambda report, args: reports.append(report))
    rng = random.Random(1111)
    fans = _sweep_fans()
    for i in range(210):
        v = _sweep_bundle(rng, rng.choice(fans))
        bundle = tmp_path / f"b{i}.json"
        bundle.write_text(dumps_canonical(serialize.bundle_to_obj(v)))
        field = tmp_path / f"f{i}.json"
        field.write_text(dumps_canonical(serialize.field_to_obj(_sweep_field(rng, v))))
        for argv in (
            ["check", str(bundle)],
            ["endalg", str(bundle)],
            ["classify", str(bundle)],
            ["chern", str(bundle)],
            ["validate-field", str(field)],
        ):
            assert cli.main(argv) == 0, capsys.readouterr().err
    assert len(reports) >= 1000
    forms = valid = incompatible = 0
    for report in reports:
        assert dumps_canonical(report) == ref_json(report)
        assert text(report) == ref_text(report)
        forms += bool(report.get("tuple_equations", {}).get("forms"))
        valid += report.get("valid") is True
        incompatible += report.get("compatible") is False
    # the sweep reaches sparse forms, valid fields and incompatible bundles
    assert min(forms, valid, incompatible) >= 20, (forms, valid, incompatible)

