"""Command-line behavior: verbs, formats, exit codes, fixture generation.

The verbs run in-process through ``cli.main(argv)``, against the package this
test session imports.  One test runs ``python -m toric_cohiggs`` as a real
subprocess and puts that package's directory on the child's PYTHONPATH itself.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import toric_cohiggs
from reference import line_sum
from toric_cohiggs import cli, fan_pn
from toric_cohiggs.serialize import bundle_to_obj, save_json


@pytest.fixture
def run_cli(monkeypatch, capsys):
    """Run ``cli.main(args)`` in ``cwd`` with ``env`` added to the environment.

    Returns the ``(returncode, stdout, stderr)`` of a ``python -m
    toric_cohiggs`` run.  ``SystemExit`` (argparse usage errors) becomes the
    exit status as the interpreter would make it; any other exception escapes.
    """

    def run(args: list[str], cwd: Path, env: dict | None = None):
        with monkeypatch.context() as m:
            m.chdir(cwd)
            for key, value in (env or {}).items():
                m.setenv(key, value)
            capsys.readouterr()
            try:
                code = cli.main(args)
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
            out, err = capsys.readouterr()
        return subprocess.CompletedProcess(args, code, out, err)

    return run


@pytest.fixture
def make_fixture(run_cli):
    def make(kind_args: list[str], cwd: Path) -> Path:
        r = run_cli(["example", *kind_args], cwd)
        assert r.returncode == 0, r.stderr
        return Path(r.stdout.strip())

    return make


def run_module(args: list[str], cwd: Path, hash_seed: str):
    """Run ``python -m toric_cohiggs`` in a child interpreter.

    The directory holding the imported package goes first on the child's
    PYTHONPATH, so the child finds it from any ``cwd`` whether the session
    found it through a relative PYTHONPATH, an absolute one, or an install.
    """
    package_root = str(Path(toric_cohiggs.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = package_root + (os.pathsep + inherited if inherited else "")
    env["PYTHONHASHSEED"] = hash_seed
    return subprocess.run(
        [sys.executable, "-m", "toric_cohiggs", *args],
        cwd=str(cwd),
        text=True,
        capture_output=True,
        env=env,
    )


def test_example_fixtures_reparse_and_validate(tmp_path, make_fixture):
    from toric_cohiggs.serialize import load_bundle, load_field
    from toric_cohiggs import is_vector_bundle, validate_fan

    bundles = [
        ["tangent", "--variety", "pn", "--dim", "3"],
        ["tangent", "--variety", "p1xp1"],
        ["tangent", "--variety", "p1xp2"],
        ["hirzebruch", "--a", "1"],
        ["three-lines"],
    ]
    for args in bundles:
        path = make_fixture(args, tmp_path)
        bundle = load_bundle(path)
        assert validate_fan(bundle.fan).ok
    field_path = make_fixture(["canonical", "--variety", "pn", "--dim", "1"], tmp_path)
    field = load_field(field_path)
    assert field.bundle.r == 2
    assert is_vector_bundle(field.bundle).compatible


def test_classify_tangent_p2_report(tmp_path, run_cli, make_fixture):
    path = make_fixture(["tangent", "--variety", "pn", "--dim", "2"], tmp_path)
    r = run_cli(["classify", str(path), "--format", "json"], tmp_path)
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    assert report["dim_h"] == 1
    assert report["commutative"] is True
    assert report["parameters"] == 2
    assert report["compatible"] is True
    assert report["basis"] == [[["1", "0"], ["0", "1"]]]
    assert report["inputs"]["bundle"]["sha256"]


def test_classify_tangent_p1xp1_report(tmp_path, run_cli, make_fixture):
    path = make_fixture(["tangent", "--variety", "p1xp1"], tmp_path)
    r = run_cli(["classify", str(path), "--format", "json"], tmp_path)
    report = json.loads(r.stdout)
    assert report["dim_h"] == 2
    assert report["parameters"] == 4


def test_check_three_lines_is_negative_data_not_failure(tmp_path, run_cli, make_fixture):
    path = make_fixture(["three-lines"], tmp_path)
    r = run_cli(["check", str(path), "--format", "json"], tmp_path)
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["compatible"] is False
    assert report["cone"] == 0
    assert "certificate" in report


def test_strict_flag_turns_negative_verdicts_into_exit_3(tmp_path, run_cli, make_fixture):
    path = make_fixture(["three-lines"], tmp_path)
    r = run_cli(["check", str(path), "--strict"], tmp_path)
    assert r.returncode == 3
    good = make_fixture(["tangent", "--variety", "pn", "--dim", "2"], tmp_path)
    r2 = run_cli(["check", str(good), "--strict"], tmp_path)
    assert r2.returncode == 0


def test_validate_field_verb(tmp_path, run_cli, make_fixture):
    path = make_fixture(["canonical", "--variety", "pn", "--dim", "1"], tmp_path)
    r = run_cli(["validate-field", str(path), "--format", "json"], tmp_path)
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["valid"] is False  # trivial linearization, pinned by golden data
    assert report["integrability"]["valid"] is True
    assert report["integrability_agrees"] is True


# P^2, rank 2: ray 0 filters by the line of (1/2, 1/3).  The first matrix keeps
# that line and the second does not; the two do not commute.
FRACTIONAL_FIELD = (
    '{"bundle": {"fan": {"n": 2, "rays": [[1, 0], [0, 1], [-1, -1]],'
    ' "max_cones": [[0, 1], [1, 2], [0, 2]]},\n'
    '            "rank": 2,\n'
    '            "filtrations": [{"ray": 0, "steps": [{"j": 0, "basis": [["1/2", "1/3"]]},'
    ' {"j": 1, "basis": []}]},\n'
    '                            {"ray": 1, "steps": [{"j": 0, "basis": []}]},\n'
    '                            {"ray": 2, "steps": [{"j": 0, "basis": []}]}]},\n'
    ' "tuple": [[["1", "-3/4"], ["0", "1/2"]], [["0", "1/3"], ["2/5", "0"]]]}\n'
)


def test_validate_field_report_with_fractional_entries(tmp_path, run_cli):
    (tmp_path / "frac.field.json").write_text(FRACTIONAL_FIELD)
    r = run_cli(["validate-field", "frac.field.json", "--format", "json"], tmp_path)
    assert r.returncode == 0, r.stderr
    expected = {
        "commutator_violations": [[0, 1]],
        "filtration_violations": [[1, 0, 0]],
        "inputs": {"field": {
            "path": "frac.field.json",
            "sha256": "d25a869648ef27e403f6126f1abbf53afdd767ad054363bcad57fbb6476fa07b",
        }},
        "integrability": {"first_failure": {"chart_pair": [0, 1], "cone": 0}, "valid": False},
        "integrability_agrees": True,
        "valid": False,
        "verb": "validate-field",
    }
    assert r.stdout == json.dumps(expected, sort_keys=True, indent=2) + "\n"
    assert r.stderr == ""


def test_validate_field_builds_its_field_once(tmp_path, run_cli, make_fixture, monkeypatch):
    path = make_fixture(["canonical", "--variety", "pn", "--dim", "2"], tmp_path)
    built = []
    post_init = toric_cohiggs.ToricCoHiggsField.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(toric_cohiggs.ToricCoHiggsField, "__post_init__", counting_post_init)
    r = run_cli(["validate-field", str(path), "--format", "json"], tmp_path)
    assert r.returncode == 0, r.stderr
    assert len(built) == 1


@pytest.mark.parametrize(
    "mats, message",
    [
        ([[["1", "0"], ["0", "1"]]], "1 matrices for lattice rank 2"),
        ([[["1", "0"], ["0", "1"]]] * 3, "3 matrices for lattice rank 2"),
        ([[["1", "0"]], [["0", "1"]]], "field matrices must be rank x rank"),
        ([[["1", "0", "0"]] * 3] * 2, "field matrices must be rank x rank"),
    ],
    ids=["too-few", "too-many", "one-row", "rank-3"],
)
def test_malformed_field_tuple_exits_1(tmp_path, run_cli, mats, message):
    bundle = bundle_to_obj(toric_cohiggs.tangent_bundle(fan_pn(2)))
    (tmp_path / "bad.field.json").write_text(json.dumps({"bundle": bundle, "tuple": mats}))
    r = run_cli(["validate-field", "bad.field.json"], tmp_path)
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr == f"error: bad field: {message}\n"


# A compatible rank-3 bundle on P^1 x P^2 adapted to one basis with fractional
# and negative entries, given through non-canonical step bases (multiples, sums,
# JSON integers next to "p/q" strings).  The reports were pinned before the
# canonical subspace rows became integers, so rendering stays exact.
FRACTIONAL_DIR = Path(__file__).parent / "golden" / "fractional_p1xp2"


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("verb", ["check", "chern", "endalg", "classify"])
def test_fractional_bundle_reports_are_pinned(tmp_path, run_cli, verb, fmt):
    (tmp_path / "frac.bundle.json").write_bytes((FRACTIONAL_DIR / "bundle.json").read_bytes())
    r = run_cli([verb, "frac.bundle.json", "--format", fmt], tmp_path)
    assert r.returncode == 0, r.stderr
    assert r.stdout == (FRACTIONAL_DIR / f"{verb}.{'json' if fmt == 'json' else 'txt'}").read_text()
    assert r.stderr == ""


def test_chern_verb(tmp_path, run_cli, make_fixture):
    path = make_fixture(["tangent", "--variety", "pn", "--dim", "1"], tmp_path)
    r = run_cli(["chern", str(path), "--format", "json"], tmp_path)
    report = json.loads(r.stdout)
    assert report["compatible"] is True
    assert report["chern"]["cones"] == [
        {"classes": [{"mult": 1, "u": [1]}], "cone": 0},
        {"classes": [{"mult": 1, "u": [-1]}], "cone": 1},
    ]


def test_endalg_verb(tmp_path, run_cli, make_fixture):
    path = make_fixture(["tangent", "--variety", "p1xp1"], tmp_path)
    r = run_cli(["endalg", str(path), "--format", "json"], tmp_path)
    report = json.loads(r.stdout)
    assert report["dim"] == 2
    assert report["commutative"] is True
    assert report["center_dim"] == 2
    assert report["tuple_equations"]["forms"] == []


@pytest.mark.parametrize("bundle", ["golden", "line_sum"])
def test_endalg_report_agrees_with_classify(tmp_path, run_cli, bundle):
    """Both verbs render the same algebra: the golden bundle (pivot entries
    over 1) and O(0) + O(1) + O(2) on P^2."""
    if bundle == "golden":
        (tmp_path / "b.json").write_bytes((FRACTIONAL_DIR / "bundle.json").read_bytes())
    else:
        save_json(tmp_path / "b.json", bundle_to_obj(line_sum(fan_pn(2), [0, 1, 2])))
    reports = {}
    for verb in ("endalg", "classify"):
        r = run_cli([verb, "b.json", "--format", "json"], tmp_path)
        assert (r.returncode, r.stderr) == (0, "")
        reports[verb] = json.loads(r.stdout)
    endalg, classified = reports["endalg"], reports["classify"]
    assert endalg["basis"] == classified["basis"] and len(endalg["basis"]) == endalg["dim"]
    assert endalg["center_dim"] == classified["center_dim"] == len(classified["center"])
    assert not classified["commutative"]
    assert endalg["tuple_equations"] == classified["tuple_equations"]
    assert endalg["tuple_equations"]["forms"]


# A rank-2 bundle on the point fan (n = 0): no rays, so no filtrations, and
# the algebra is all of End(Q^2).  Commuting 0-tuples carry no equations.
@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("verb", ["endalg", "classify"])
def test_point_fan_bundle_is_classified(tmp_path, run_cli, verb, fmt):
    bundle = {"fan": {"n": 0, "rays": [], "max_cones": [[]]}, "rank": 2, "filtrations": []}
    (tmp_path / "point.json").write_text(json.dumps(bundle))
    r = run_cli([verb, "point.json", "--format", fmt], tmp_path)
    assert (r.returncode, r.stderr) == (0, "")
    if fmt == "text":
        return
    report = json.loads(r.stdout)
    assert report["dim_h" if verb == "classify" else "dim"] == 4
    assert report["commutative"] is False
    assert report["center_dim"] == 1
    eqs = report["tuple_equations"]
    assert (eqs["n"], eqs["pairs"], eqs["forms"]) == (0, [], [])


def test_json_output_is_byte_identical_across_runs(tmp_path, run_cli, make_fixture):
    path = make_fixture(["tangent", "--variety", "p1xp2"], tmp_path)
    args = ["classify", str(path), "--format", "json"]
    r1 = run_module(args, tmp_path, hash_seed="1")
    r2 = run_module(args, tmp_path, hash_seed="12345")
    assert r1.returncode == 0, r1.stderr
    assert r2.returncode == 0, r2.stderr
    assert json.loads(r1.stdout)["verb"] == "classify"
    assert r1.stdout == r2.stdout
    assert run_cli(args, tmp_path).stdout == r1.stdout


REPORT_VERBS = ["check", "endalg", "classify", "validate-field", "chern"]


@pytest.mark.parametrize("verb", REPORT_VERBS)
def test_output_flag_writes_json_report(tmp_path, run_cli, make_fixture, verb):
    kind = "canonical" if verb == "validate-field" else "tangent"
    path = make_fixture([kind, "--variety", "pn", "--dim", "2"], tmp_path)
    out = tmp_path / "report.json"
    r = run_cli([verb, str(path), "--output", str(out)], tmp_path)
    assert r.returncode == 0, r.stderr
    printed = run_cli([verb, str(path), "--format", "json"], tmp_path)
    assert printed.returncode == 0
    assert json.loads(printed.stdout)["verb"] == verb
    assert out.read_bytes() == printed.stdout.encode()


@pytest.mark.parametrize(
    "verb, code",
    [("check", 3), ("chern", 3), ("classify", 3), ("validate-field", 3), ("endalg", 0)],
)
def test_strict_exits_3_on_each_negative_verdict(tmp_path, run_cli, make_fixture, verb, code):
    if verb == "validate-field":
        path = tmp_path / "frac.field.json"  # its two matrices do not commute
        path.write_text(FRACTIONAL_FIELD)
    else:
        path = make_fixture(["three-lines"], tmp_path)
    assert run_cli([verb, str(path)], tmp_path).returncode == 0
    r = run_cli([verb, str(path), "--strict"], tmp_path)
    assert r.returncode == code, r.stderr


def test_unknown_verb_exits_1(tmp_path, run_cli):
    r = run_cli(["frobnicate"], tmp_path)
    assert r.returncode == 1
    assert "usage" in (r.stderr + r.stdout).lower()


def test_missing_file_exits_1(tmp_path, run_cli):
    r = run_cli(["check", "no_such_file.json"], tmp_path)
    assert r.returncode == 1
    assert "error" in r.stderr.lower()


def test_malformed_json_exits_1(tmp_path, run_cli):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    r = run_cli(["check", str(bad)], tmp_path)
    assert r.returncode == 1
    assert "is not valid JSON" in r.stderr


def test_deeply_nested_json_exits_1(tmp_path, run_cli):
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100_000)
    r = run_cli(["check", str(bad)], tmp_path)
    assert r.returncode == 1
    assert "is nested too deeply to parse" in r.stderr


@pytest.mark.parametrize("fan_path", ["nul\x00byte.json", "latin1.json"], ids=["nul", "not-utf8"])
def test_unreadable_fan_path_exits_1(tmp_path, run_cli, make_fixture, fan_path):
    (tmp_path / "latin1.json").write_bytes(b'{"n": "\xe9"}')
    path = make_fixture(["tangent", "--variety", "pn", "--dim", "2"], tmp_path)
    obj = json.loads(path.read_text())
    obj["fan"] = fan_path
    path.write_text(json.dumps(obj))
    r = run_cli(["check", str(path)], tmp_path)
    assert r.returncode == 1
    assert "cannot read" in r.stderr


def test_integer_literal_over_digit_limit_exits_1(tmp_path, run_cli, make_fixture):
    path = make_fixture(["tangent", "--variety", "pn", "--dim", "2"], tmp_path)
    obj = json.loads(path.read_text())
    obj["rank"] = "RANK"
    path.write_text(json.dumps(obj).replace('"RANK"', "1" * 5000))
    r = run_cli(["check", str(path)], tmp_path)
    assert r.returncode == 1
    assert "is not valid JSON" in r.stderr and "digits" in r.stderr


def test_result_over_digit_limit_exits_1(tmp_path, run_cli):
    # 2x2 minors of 4000-digit entries: the reduced basis has ~8000-digit
    # entries, which str() refuses to write
    rng = random.Random(5)

    def big():
        return str(rng.randrange(10**3999, 10**4000))

    bundle = {
        "fan": {"n": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
                "max_cones": [[0, 1], [1, 2], [0, 2]]},
        "rank": 3,
        "filtrations": [
            {"ray": i, "steps": [{"j": 0, "basis": [[big() for _ in range(3)] for _ in range(2)]},
                                 {"j": 1, "basis": []}]}
            for i in range(3)
        ],
    }
    path = tmp_path / "big.bundle.json"
    path.write_text(json.dumps(bundle))
    for fmt in ("json", "text"):
        r = run_cli(["check", str(path), "--format", fmt], tmp_path)
        assert r.returncode == 1
        assert "the input's numbers are too large to report" in r.stderr
        assert r.stdout == ""


def test_internal_value_error_exits_2(tmp_path, run_cli, make_fixture, monkeypatch):
    path = make_fixture(["tangent", "--variety", "pn", "--dim", "2"], tmp_path)

    def broken(*args, **kwargs):
        raise ValueError("broken invariant")

    monkeypatch.setattr(cli, "is_vector_bundle", broken)
    r = run_cli(["check", str(path)], tmp_path)
    assert r.returncode == 2
    assert "internal error: ValueError: broken invariant" in r.stderr


@pytest.mark.parametrize("verb", REPORT_VERBS)
def test_invalid_fan_in_bundle_exits_1(tmp_path, run_cli, verb):
    bundle = {
        "fan": {"n": 2, "rays": [[2, 0], [0, 1]], "max_cones": [[0, 1]]},
        "rank": 1,
        "filtrations": [
            {"ray": 0, "steps": [{"j": 0, "basis": []}]},
            {"ray": 1, "steps": [{"j": 0, "basis": []}]},
        ],
    }
    obj, what = bundle, "bundle"
    if verb == "validate-field":
        obj, what = {"bundle": bundle, "tuple": [[["0"]], [["0"]]]}, "field bundle"
    bad = tmp_path / "bad_fan.json"
    bad.write_text(json.dumps(obj))
    r = run_cli([verb, str(bad)], tmp_path)
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr == f"error: {what} fan is invalid: ray 0 = (2, 0) is not primitive\n"


# A fan rule broken in the inline fan of a P^2 fixture, and the exact stderr of
# check and of validate-field: loading leaves the rule to validate_fan, except
# that a field's matrix count is checked against a negative rank at load.
FAN_RULE_CASES = {
    "negative-rank": (lambda f: f.update(n=-1), "bundle fan is invalid: negative lattice rank",
                      "bad field: 2 matrices for lattice rank -1"),
    "no-cones": (lambda f: f.update(max_cones=[]),
                 "bundle fan is invalid: fan has no maximal cones",
                 "field bundle fan is invalid: fan has no maximal cones"),
    "index-7": (lambda f: f.update(max_cones=[[0, 7]]),
                "bundle fan is invalid: cone 0 has a ray index out of range",
                "field bundle fan is invalid: cone 0 has a ray index out of range"),
    "index-minus-1": (lambda f: f.update(max_cones=[[0, -1]]),
                      "bundle fan is invalid: cone 0 has a ray index out of range",
                      "field bundle fan is invalid: cone 0 has a ray index out of range"),
}


@pytest.mark.parametrize("verb", ["check", "validate-field"])
@pytest.mark.parametrize("name", sorted(FAN_RULE_CASES))
def test_fan_rules_exit_1_with_the_validate_fan_reason(tmp_path, run_cli, make_fixture, verb,
                                                       name):
    breakage, check_error, field_error = FAN_RULE_CASES[name]
    kind = "tangent" if verb == "check" else "canonical"
    path = make_fixture([kind, "--variety", "pn", "--dim", "2"], tmp_path)
    obj = json.loads(path.read_text())
    breakage(obj["fan"] if verb == "check" else obj["bundle"]["fan"])
    path.write_text(json.dumps(obj))
    r = run_cli([verb, str(path)], tmp_path)
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == f"error: {check_error if verb == 'check' else field_error}\n"


@pytest.mark.xfail(strict=True, reason="overlapping cones are not detected yet (ROADMAP item 4)")
def test_overlapping_cones_in_bundle_exit_1(tmp_path, run_cli):
    # cone {1, 2} = cone((0, 1), (1, 1)) lies inside cone {0, 1}: not a fan,
    # but check exits 0 with a report (tests/reference.py's face check rejects it)
    bad = tmp_path / "overlap.bundle.json"
    bad.write_text(
        json.dumps(
            {
                "fan": {"n": 2, "rays": [[1, 0], [0, 1], [1, 1]], "max_cones": [[0, 1], [1, 2]]},
                "rank": 1,
                "filtrations": [{"ray": i, "steps": [{"j": 0, "basis": []}]} for i in range(3)],
            }
        )
    )
    r = run_cli(["check", str(bad)], tmp_path)
    assert r.returncode == 1


def _set_first_basis(o, basis):
    o["filtrations"][0]["steps"][0]["basis"] = basis


def _set_first_matrix_entry_to_float(o):
    m = o["tuple"][0]
    m[0][0] = float(Fraction(m[0][0]))


@pytest.mark.parametrize(
    "kind, breakage, field",
    [
        # 1e300 and 0.5 span the same line as the original basis vector (1, 0)
        ("tangent", lambda o: _set_first_basis(o, [[1e300, 0]]), "basis"),
        ("tangent", lambda o: _set_first_basis(o, [[0.5, 0]]), "basis"),
        ("tangent", lambda o: o["filtrations"][0]["steps"][0].update(j=False), "threshold"),
        ("tangent", lambda o: o["fan"]["rays"].__setitem__(0, [True, False]), "ray entry"),
        ("tangent", lambda o: o.update(rank=True), "'rank'"),
        ("tangent", lambda o: o["fan"].update(n=True), "lattice rank"),
        ("tangent", lambda o: o["filtrations"][1].update(ray=True), "'ray'"),
        ("tangent", lambda o: o["fan"]["max_cones"].__setitem__(0, [False, True]),
         "cone index"),
        ("canonical", _set_first_matrix_entry_to_float, "matrix"),
    ],
    ids=["basis-1e300", "basis-0.5", "j-false", "ray-coords-bool", "rank-true",
         "n-true", "ray-index-true", "cone-index-bool", "tuple-float"],
)
def test_floats_and_bools_are_not_schema_numbers(
    tmp_path, run_cli, make_fixture, kind, breakage, field
):
    verb = "check" if kind == "tangent" else "validate-field"
    path = make_fixture([kind, "--variety", "pn", "--dim", "2"], tmp_path)
    assert run_cli([verb, str(path)], tmp_path).returncode == 0
    obj = json.loads(path.read_text())
    breakage(obj)
    path.write_text(json.dumps(obj))
    r = run_cli([verb, str(path)], tmp_path)
    assert r.returncode == 1
    assert field in r.stderr


def _set_first_one(o, entry):
    """Replace the first entry "1" of a tangent bundle basis or a canonical tuple."""
    if "tuple" in o:
        o["tuple"][0][2][0] = entry
    else:
        o["filtrations"][0]["steps"][0]["basis"][0][0] = entry


RATIONAL_CASES = [
    ("check", "tangent", "bad step basis for ray 0"),
    ("validate-field", "canonical", "bad matrix"),
]


@pytest.mark.parametrize("verb, kind, context", RATIONAL_CASES, ids=["check", "validate-field"])
@pytest.mark.parametrize(
    "entry",
    ["3.5", "1e3", "1_000", "١", "１", " 1", "1 ", "1\n", "+ 1", "--1", "1/-2",
     "1/+2", "1/0", "0x1", "", "1/2/3", "/2", "9" * 5000, "1e99999999"],
)
def test_entries_outside_the_rational_grammar_exit_1(
    tmp_path, run_cli, make_fixture, verb, kind, context, entry
):
    path = make_fixture([kind, "--variety", "pn", "--dim", "2"], tmp_path)
    obj = json.loads(path.read_text())
    _set_first_one(obj, entry)
    path.write_text(json.dumps(obj))
    r = run_cli([verb, str(path)], tmp_path)
    assert r.returncode == 1
    assert r.stdout == ""
    assert f"error: {context}: not a rational: {entry!r}" in r.stderr


@pytest.mark.parametrize("verb, kind, context", RATIONAL_CASES, ids=["check", "validate-field"])
@pytest.mark.parametrize("entry", [1, "+1", "01", "2/2", "+3/3", "0001/001"])
def test_spellings_inside_the_rational_grammar_give_the_same_report(
    tmp_path, run_cli, make_fixture, verb, kind, context, entry
):
    path = make_fixture([kind, "--variety", "pn", "--dim", "2"], tmp_path)
    args = [verb, str(path), "--format", "json"]
    plain = run_cli(args, tmp_path)
    obj = json.loads(path.read_text())
    _set_first_one(obj, entry)
    path.write_text(json.dumps(obj))
    respelled = run_cli(args, tmp_path)
    assert plain.returncode == respelled.returncode == 0
    reports = [json.loads(r.stdout) for r in (plain, respelled)]
    for report in reports:
        del report["inputs"]
    assert reports[0] == reports[1]


def test_example_bad_dim_exits_1(tmp_path, run_cli):
    r = run_cli(["example", "tangent", "--variety", "pn", "--dim", "0"], tmp_path)
    assert r.returncode == 1
    assert "needs n >= 1" in r.stderr


@pytest.mark.parametrize("dim", ["101", "10000000000"])
@pytest.mark.parametrize("kind", ["tangent", "canonical"])
def test_example_dim_over_100_exits_1_before_building_a_fan(tmp_path, run_cli, monkeypatch,
                                                            kind, dim):
    def refuse(n):
        raise AssertionError(f"fan_pn({n}) was built")

    monkeypatch.setattr(cli, "fan_pn", refuse)
    r = run_cli(["example", kind, "--variety", "pn", "--dim", dim], tmp_path)
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == f"error: --dim {dim}: at most 100, since the fixture grows as n^3\n"
    assert list(tmp_path.iterdir()) == []


def test_example_dim_100_is_allowed(tmp_path, run_cli, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "fan_pn", lambda n: built.append(n) or fan_pn(2))  # a small stand-in
    r = run_cli(["example", "tangent", "--variety", "pn", "--dim", "100"], tmp_path)
    assert r.returncode == 0, r.stderr
    assert built == [100]
    assert Path(r.stdout.strip()).name == "tangent_pn100.bundle.json"


@pytest.mark.parametrize("args, message", [
    (["tangent", "--variety", "p1xp1", "--dim", "-5"], "--variety p1xp1 ignores --dim"),
    (["canonical", "--variety", "p1xp2", "--dim", "2"], "--variety p1xp2 ignores --dim"),
    (["tangent", "--a", "1"], "example tangent ignores --a"),
    (["canonical", "--variety", "pn", "--a", "0"], "example canonical ignores --a"),
    (["hirzebruch", "--variety", "pn"], "example hirzebruch ignores --variety"),
    (["hirzebruch", "--a", "1", "--dim", "2"], "example hirzebruch ignores --dim"),
    (["three-lines", "--variety", "p1xp1"], "example three-lines ignores --variety"),
    (["three-lines", "--dim", "3"], "example three-lines ignores --dim"),
    (["three-lines", "--a", "0"], "example three-lines ignores --a"),
])
def test_example_refuses_an_option_its_kind_ignores(tmp_path, run_cli, args, message):
    r = run_cli(["example", *args], tmp_path)
    assert (r.returncode, r.stdout, r.stderr) == (1, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind, spelled", [
    ("tangent", ["--variety", "pn", "--dim", "2"]),
    ("canonical", ["--variety", "pn", "--dim", "2"]),
    ("tangent", ["--dim", "2"]),
    ("hirzebruch", ["--a", "0"]),
])
def test_example_defaults_write_the_bytes_of_the_spelled_out_options(tmp_path, make_fixture,
                                                                     kind, spelled):
    (tmp_path / "default").mkdir()
    (tmp_path / "spelled").mkdir()
    default = make_fixture([kind], tmp_path / "default")
    explicit = make_fixture([kind, *spelled], tmp_path / "spelled")
    assert default.name == explicit.name
    assert default.read_bytes() == explicit.read_bytes()


def test_check_report_ignores_the_old_oracle_limit_env(tmp_path, run_cli, monkeypatch):
    # rank 5 incompatible data, once reported indeterminate under a rank cap
    # set by TVB_ORACLE_LIMIT: the verdict is decided whatever the variable says
    from toric_cohiggs import direct_sum, line_bundle
    from toric_cohiggs.serialize import bundle_to_obj, save_json
    from conftest import three_lines_bundle

    fat = three_lines_bundle()
    for _ in range(3):
        fat = direct_sum(fat, line_bundle(fat.fan, 0))
    path = tmp_path / "fat.bundle.json"
    save_json(path, bundle_to_obj(fat))
    monkeypatch.delenv("TVB_ORACLE_LIMIT", raising=False)
    args = ["check", str(path), "--format", "json"]
    unset = run_cli(args, tmp_path)
    assert unset.returncode == 0
    assert json.loads(unset.stdout)["status"] == "incompatible"
    for value in ("5", "junk"):
        r = run_cli(args, tmp_path, env={"TVB_ORACLE_LIMIT": value})
        assert (r.returncode, r.stdout, r.stderr) == (0, unset.stdout, unset.stderr)


def test_cached_parser_gives_the_bytes_of_a_fresh_one(tmp_path, run_cli, make_fixture):
    assert cli._build_parser() is cli._build_parser()
    path = make_fixture(["tangent", "--variety", "pn", "--dim", "2"], tmp_path)
    args = ["check", str(path), "--format", "json"]
    usage = run_cli(["check"], tmp_path)
    assert usage.returncode == 1
    after_error = run_cli(args, tmp_path)
    cli._build_parser.cache_clear()
    fresh = run_cli(args, tmp_path)
    assert after_error.returncode == fresh.returncode == 0
    assert after_error.stdout == fresh.stdout
    assert after_error.stderr == fresh.stderr == ""


def test_example_respects_output_path(tmp_path, run_cli):
    target = tmp_path / "sub" / "myfan.json"
    target.parent.mkdir()
    r = run_cli(
        ["example", "tangent", "--variety", "pn", "--dim", "2", "--output", str(target)],
        tmp_path,
    )
    assert r.returncode == 0
    assert Path(r.stdout.strip()) == target
    assert target.exists()
