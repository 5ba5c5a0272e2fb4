"""Fuzz of the input parsers: mutated fixture JSON never exits 2.

Each example takes the JSON of a fixture for ``check``, ``classify`` or
``validate-field``, applies one mutation at a place hypothesis draws (drop a
key or list item, or put a float, bool, null, string, other container,
integer, huge integer literal or deeply nested list in place of a value), and
runs the verb in-process through ``cli.main(argv)``.  A second set of cases
draws the place inside the inline fan of the ``check`` and ``validate-field``
fixtures, whose fan rules only ``fans.validate_fan`` judges.  Input that is
still well formed exits 0; malformed input exits 1 with an ``error:`` message.
Exit 2 would mean an internal error, and a slow example fails the deadline.
"""

from __future__ import annotations

import json
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from toric_cohiggs import cli, serialize
from toric_cohiggs.cohiggs import ToricCoHiggsField, canonical_pair
from toric_cohiggs.fans import fan_pn
from toric_cohiggs.bundles import tangent_bundle

# Placeholders replaced in the JSON text: neither value can pass through
# json.dumps (str() refuses integers over 4300 digits; the nesting exceeds
# the recursion limit).
HUGE = "\x00huge"
DEEP = "\x00deep"
HUGE_LITERAL = "9" * 5000
DEEP_LITERAL = "[" * 100_000 + "]" * 100_000

FIXTURES = {
    "check": serialize.bundle_to_obj(tangent_bundle(fan_pn(2))),
    "classify": serialize.bundle_to_obj(cli.three_lines_bundle()),
    "validate-field": serialize.field_to_obj(ToricCoHiggsField(*canonical_pair(fan_pn(2)))),
}

replacements = st.one_of(
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
    st.text(max_size=8),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.sampled_from([HUGE, DEEP, [], {}, [[]], {"n": 1}, "1/0", "nan", "1e3"]),
)


@st.composite
def mutated(draw, obj, at=()):
    """A deep copy of obj with one drawn mutation inside the subtree at the
    key path ``at`` (the subtree itself included); the copy, not obj, changes."""
    obj = json.loads(json.dumps(obj))
    parent, key = None, None
    node = obj
    for key in at:
        parent, node = node, node[key]
    # descend five times in six, so deep places are reached and the root rarely replaced
    while isinstance(node, (dict, list)) and node and draw(st.integers(0, 5)):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, draw(st.sampled_from(keys))
        node = parent[key]
    if parent is None:
        return draw(replacements)
    if draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(replacements)
    return obj


def _dump(obj) -> str:
    text = json.dumps(obj)
    return text.replace(json.dumps(HUGE), HUGE_LITERAL).replace(json.dumps(DEEP), DEEP_LITERAL)


def run_mutations(verb, at, tmp_path_factory, capsys):
    path = tmp_path_factory.mktemp("fuzz") / "input.json"

    @settings(
        max_examples=120,
        deadline=timedelta(seconds=5),
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(mutated(FIXTURES[verb], at))
    def run(obj):
        path.write_text(_dump(obj))
        capsys.readouterr()
        code = cli.main([verb, str(path), "--format", "json"])
        out, err = capsys.readouterr()
        assert code in (0, 1), err
        if code == 1:
            assert err.startswith("error: "), err

    run()


@pytest.mark.parametrize("verb", sorted(FIXTURES))
def test_mutated_fixture_exits_0_or_1(verb, tmp_path_factory, capsys):
    run_mutations(verb, (), tmp_path_factory, capsys)


# the inline fan of each fixture that has one: the fan rules are validate_fan's
FAN_PATHS = {"check": ("fan",), "validate-field": ("bundle", "fan")}


@pytest.mark.parametrize("verb", sorted(FAN_PATHS))
def test_mutated_fan_exits_0_or_1(verb, tmp_path_factory, capsys):
    run_mutations(verb, FAN_PATHS[verb], tmp_path_factory, capsys)
