"""Tests of the benchmark itself: inputs, output checks and span arithmetic.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import sys

import pytest

import checks
import run
import spans
import workloads


@pytest.fixture(scope="module")
def library():
    sys.path.insert(0, str(run.ROOT / "src"))
    return run.import_library()


def _report(library, tmp_path, workload, op_id):
    wl = workloads.build(workload, run.DEFAULT_SEED)
    wl.write(tmp_path)
    op = next(o for o in wl.ops if o.op_id == op_id)
    code, out, _ = run.call(library["cli"].main, [op.verb, str(tmp_path / op.file), "--format", "json"])
    assert code == 0
    return op, json.loads(out)


# ---------------------------------------------------------------------------
# inputs

def test_same_seed_same_inputs_other_seed_other_inputs():
    a = workloads.build("random_mix", 7)
    assert a == workloads.build("random_mix", 7)
    b = workloads.build("random_mix", 8)
    assert a.files != b.files
    assert [o.op_id for o in a.ops] == [o.op_id for o in b.ops]


def test_ladders_do_not_depend_on_the_seed():
    for name in ("check_ladder", "classify_ladder"):
        assert workloads.build(name, 1) == workloads.build(name, 2)


def test_random_bundles_have_fixed_threshold_counts():
    for op in workloads.build("random_mix", 3).ops:
        for steps in op.bundle.steps:
            assert len(steps) == min(op.bundle.rank, workloads.MIX_DISTINCT)
            assert all(-2 <= j <= 2 for j, _ in steps)


def test_line_sum_dim_h():
    assert workloads.line_sum_dim_h([0, 1, 2]) == 6
    assert workloads.line_sum_dim_h([0, 0, 0]) == 9


# ---------------------------------------------------------------------------
# output checks

def test_exact_rank_and_spans():
    assert checks.rank([(1, 2), (2, 4)]) == 1
    assert checks.rank([(1, 2, 3), (0, 1, 1), (1, 3, 4)]) == 2
    assert checks.rank([]) == 0
    assert checks.same_span([(1, 1), (1, -1)], [(1, 0), (0, 1)])
    assert not checks.same_span([(1, 1)], [(1, 0)])


def test_check_report_passes_and_corruptions_are_caught(library, tmp_path):
    op, report = _report(library, tmp_path, "check_ladder", "check/tangent_p3")
    assert checks.fact_failure(op, report) is None

    dropped = copy.deepcopy(report)
    dropped["gradings"][1]["pieces"].pop()
    assert "sum to 2" in checks.fact_failure(op, dropped)

    moved = copy.deepcopy(report)
    piece = moved["gradings"][0]["pieces"][0]
    piece["u"] = [x + 1 for x in piece["u"]]
    assert "do not rebuild" in checks.fact_failure(op, moved)

    dependent = copy.deepcopy(report)
    pieces = dependent["gradings"][2]["pieces"]
    pieces[0]["basis"] = pieces[1]["basis"]
    assert "not independent" in checks.fact_failure(op, dependent)

    refused = dict(report, status="incompatible")
    assert "built compatible" in checks.fact_failure(op, refused)


def test_classify_report_wrong_dim_h_is_caught(library, tmp_path):
    op, report = _report(library, tmp_path, "classify_ladder", "classify/lines_k3")
    assert report["dim_h"] == 6
    assert checks.fact_failure(op, report) is None
    assert "dim_h" in checks.fact_failure(op, dict(report, dim_h=5))
    assert "center_dim" in checks.fact_failure(op, dict(report, center_dim=2))


def test_field_report_is_recomputed(library, tmp_path):
    op, report = _report(library, tmp_path, "random_mix", "validate-field/p3-r4-perturbed-random")
    assert checks.fact_failure(op, report) is None
    assert report["valid"] is False
    assert "valid" in checks.fact_failure(op, dict(report, valid=True))
    assert "commutator" in checks.fact_failure(op, dict(report, commutator_violations=[]))
    assert "integrability" in checks.fact_failure(op, dict(report, integrability_agrees=False))
    op, report = _report(library, tmp_path, "random_mix", "validate-field/p3-r4-perturbed-scalar")
    assert report["valid"] is True and checks.fact_failure(op, report) is None


def test_reference_digest_ignores_only_the_input_path(library, tmp_path):
    op, report = _report(library, tmp_path, "check_ladder", "check/tangent_p2")
    pinned = {"sha256": checks.canonical_digest(report), "status": "compatible"}
    moved = copy.deepcopy(report)
    moved["inputs"]["bundle"]["path"] = "/elsewhere/tangent_p2.bundle.json"
    assert checks.reference_failure(moved, pinned) is None
    edited = copy.deepcopy(report)
    edited["gradings"][0]["pieces"][0]["u"][0] += 1
    assert checks.reference_failure(edited, pinned) is not None


def test_pinned_indeterminate_accepts_a_decided_verdict():
    pinned = {"sha256": "0" * 64, "status": "indeterminate"}
    assert checks.reference_failure({"status": "incompatible"}, pinned) is None
    assert checks.reference_failure({"status": "indeterminate", "certificate": "x"}, pinned)


def test_failed_exit_code_and_malformed_reports_are_failures():
    op = workloads.build("check_ladder", 1).ops[0]
    assert checks.output_failure(op, 2, "", None)[0] == "exit code 2"
    assert checks.output_failure(op, 0, "{", None)[0].startswith("output is not JSON")
    assert checks.output_failure(op, 0, "[]", None)[0].startswith("malformed report")
    bad_cone = json.dumps({"status": "compatible", "gradings": [{"cone": 9, "pieces": []}] * 3})
    assert checks.output_failure(op, 0, bad_cone, None)[0].startswith("cone 9")
    bad_piece = json.dumps({"status": "compatible", "gradings": [{"cone": 9}] * 3})
    assert checks.output_failure(op, 0, bad_piece, None)[0].startswith("malformed report")


# ---------------------------------------------------------------------------
# spans

def test_self_time_on_a_hand_built_tree():
    # A tree the recorder makes: children follow one another inside their parent.
    tree = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("a.child", 2.0, 3.0, 1, 0),
        ("b", 5.0, 9.0, 0, 0),
        ("b.x", 5.5, 6.0, 3, 0),
        ("b.y", 6.5, 8.0, 3, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 2.0, 0.5, 1.5])


def test_layer_report_counts_nested_same_name_once():
    rec = spans.Recorder()
    rec.spans = [
        ("cli.main", 0.0, 10.0, -1, 0),
        ("linalg.rref", 1.0, 5.0, 0, 0),
        ("linalg.rref", 2.0, 3.0, 1, 0),
        ("linalg.rref", 6.0, 7.0, 0, 0),
    ]
    report = spans.layer_report(rec, overhead=0.25)
    assert report["linalg.rref.calls"]["value"] == 3
    assert report["linalg.rref.s"]["value"] == pytest.approx(5.0)
    assert report["cli.main.self_s"]["value"] == pytest.approx(5.0)
    assert report["trace.overhead"] == {"value": 0.25, "unit": "ratio"}
    assert [m for m, _, _ in spans.LAYER_METRICS] == list(report)


def test_install_wraps_and_restores(library):
    before = {(m, a): getattr(library[m], a) for m, a, _, _ in spans.BINDINGS}
    rec = spans.Recorder()
    restore = rec.install(library)
    try:
        assert library["bundles"].intersect is not before[("bundles", "intersect")]
    finally:
        restore()
    assert {(m, a): getattr(library[m], a) for m, a, _, _ in spans.BINDINGS} == before


def test_paired_pass_runs_each_op_untraced_and_traced(library, tmp_path):
    wl = workloads.build("random_mix", run.DEFAULT_SEED)
    wl.write(tmp_path)
    ops = wl.ops[:2]
    before = {(m, a): getattr(library[m], a) for m, a, _, _ in spans.BINDINGS}
    rec = spans.Recorder()
    plain, traced, results = run.paired_pass(library, ops, tmp_path, rec)
    assert plain > 0 and traced > 0
    assert [op.op_id for op, _, _ in results] == [ops[0].op_id] * 2 + [ops[1].op_id] * 2
    assert all(code == 0 for _, code, _ in results)
    assert results[0][2] == results[1][2] and results[2][2] == results[3][2]
    assert [span[4] for span in rec.spans if span[0] == "cli.main"] == [0, 1]
    assert {(m, a): getattr(library[m], a) for m, a, _, _ in spans.BINDINGS} == before


def test_benchmark_json_lists_the_workloads_and_layer_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(spans.LAYER_METRICS)
