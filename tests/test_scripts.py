"""The scripts under ``scripts/`` run against the current library.

No other test imports them, so a library API change could break them
unseen; and ``canonical_pair_experiment.py --write`` would rewrite the golden
file from drifted code, so its cases must equal the golden ones.  Each
script runs in-process through its ``main``, never with ``--write``.
"""

import importlib.util
import json
import re
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("args", [[], ["--json"]])
def test_classify_survey_runs(args, capsys):
    assert load_script("classify_survey").main(args) == 0
    assert "tangent_pn2" in capsys.readouterr().out


def test_canonical_pair_experiment_runs_and_matches_golden(capsys):
    script = load_script("canonical_pair_experiment")
    assert script.main([]) == 0
    assert "wrote" not in capsys.readouterr().out
    golden = json.loads((ROOT / "tests" / "golden" / "canonical_pair.json").read_text())
    assert script.run_cases() == golden["cases"]


@pytest.mark.parametrize("verb, names, dim_h", [
    ("check", ("T", "T+O(D0)", "lines"), (("-", "-", "-"),) * 3),
    ("classify", ("O^k", "O(0..k-1)", "generic"), ((4, 3, 1), (9, 6, 1), (16, 10, 1))),
], ids=["check", "classify"])
def test_scale_runs_at_small_sizes(verb, names, dim_h, capsys):
    assert load_script("scale").main([verb, "--min", "2", "--max", "4"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["size", "bundle", "dim_h", "seconds", "report_bytes", "peak_rss_mb"]
    assert [row.split()[:3] for row in rows] == [
        [str(size), name, str(d)]
        for size, row_dims in zip((2, 3, 4), dim_h)
        for name, d in zip(names, row_dims)
    ]
    sizes = [int(row.split()[4]) for row in rows]
    assert all(size > 0 for size in sizes)
    for family in range(len(names)):
        assert sizes[family::len(names)] == sorted(sizes[family::len(names)])


def test_scale_runs_only_the_named_families(capsys):
    scale = load_script("scale")
    assert scale.main(["classify", "--family", "generic", "--min", "2", "--max", "3"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[:3] for row in rows] == [["2", "generic", "1"], ["3", "generic", "1"]]
    with pytest.raises(SystemExit) as exc:
        scale.main(["check", "--family", "generic"])
    assert exc.value.code == 2
    assert "no family 'generic' for check" in capsys.readouterr().err


@pytest.mark.parametrize("k", [1, 2, 5])
def test_scale_lines_family_is_read_off_its_steps(k):
    from toric_cohiggs import is_vector_bundle
    from toric_cohiggs.bundles import _coordinate_levels

    bundle = load_script("scale").FAMILIES["check"]["lines"][0](k)
    assert bundle.r == k
    # O(tD) keeps e_t up to level t on every ray
    assert all(_coordinate_levels(bundle, c.ray_indices) == [(t, t) for t in range(k)]
               for c in bundle.fan.max_cones)
    assert is_vector_bundle(bundle).compatible
    assert bundle._values == {}  # no value table: nothing was walked


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_scale_generic_family_classifies_as_the_reference(k):
    from toric_cohiggs import classify
    from reference import reference_filtered_endos

    bundle = load_script("scale").generic_flags(k)
    report = classify(bundle)
    assert report.bundle_status == "compatible"
    assert report.algebra.space == reference_filtered_endos(bundle)
    assert report.dim_h == 1 and report.commutative


def test_scale_names_the_verb_and_exit_code_of_a_failing_child(tmp_path):
    bundle = tmp_path / "bad.bundle.json"
    bundle.write_text("{")
    with pytest.raises(RuntimeError, match=r"^check \S+ exited 1$"):
        load_script("scale").run_cli(["check", str(bundle)], tmp_path / "bad.report")


@pytest.mark.parametrize("bounds", [["--min", "0"], ["--min", "5", "--max", "4"]])
def test_scale_refuses_a_size_range_that_is_empty_or_below_one(bounds, capsys):
    with pytest.raises(SystemExit) as exc:
        load_script("scale").main(["classify", *bounds])
    assert exc.value.code == 2
    assert "need 1 <= --min <= --max" in capsys.readouterr().err


def test_readme_names_each_script_that_exists_and_no_other():
    readme = (ROOT / "README.md").read_text()
    named = set(re.findall(r"scripts/(\w+)\.py", readme))
    assert {name for name in named if not (ROOT / "scripts" / f"{name}.py").is_file()} == set()
    block = re.search(r"^## Scripts\n\n```sh\n(.*?)^```", readme, re.M | re.S).group(1)
    listed = set(re.findall(r"scripts/(\w+)\.py", block))
    assert {path.stem for path in (ROOT / "scripts").glob("*.py")} - listed == set()


def test_import_rss_reports_memory_after_the_benchmark_set_up_imports(capsys):
    assert load_script("import_rss").main() == 0
    lines = dict(line.split() for line in capsys.readouterr().out.splitlines())
    repeats = re.search(r"^SETUP_REPEATS = (\d+)$", (ROOT / "bench" / "run.py").read_text(), re.M)
    assert lines.pop("imports") == repeats.group(1)
    names = ("vmrss_before_mb", "vmrss_after_mb", "vmhwm_mb", "ru_maxrss_mb", "import_ms")
    assert sorted(lines) == sorted(names + tuple(f"collected_{k}" for k in names))
    for prefix in ("", "collected_"):
        before, after, hwm, peak, ms = (float(lines[prefix + k]) for k in names)
        # ru_maxrss is a separate counter that can read below the final VmRSS
        assert 0 < before < after <= hwm
        assert before < peak
        assert 0 < ms < 60_000


def test_bench_pairs_summarizes_synthetic_runs():
    script = load_script("bench_pairs")
    better = {"wall_ref": "lower", "ok_share": "higher"}
    parent = [{"wall_ref": w, "ok_share": 1.0} for w in (1.2, 1.0, 1.4, 1.1, 1.3)]
    change = [{"wall_ref": w, "ok_share": s} for w, s in
              ((1.0, 1.0), (1.1, 1.0), (0.9, 0.5), (1.05, 1.0), (1.2, 1.0))]
    summary = script.summarize(parent, change, better)
    assert summary["pairs"] == 5
    wall = summary["wall_ref"]
    assert wall["parent"] == {"median": 1.2, "q1": 1.1, "q3": 1.3}
    assert wall["change"] == {"median": 1.05, "q1": 1.0, "q3": 1.1}
    assert wall["change_wins"] == 4  # pair 2 is a loss
    assert wall["parent_runs"] == [1.2, 1.0, 1.4, 1.1, 1.3]
    assert wall["change_runs"] == [1.0, 1.1, 0.9, 1.05, 1.2]
    ok = summary["ok_share"]
    assert ok["change_wins"] == 0  # ties are not wins; higher is better here
    assert ok["change"]["median"] == 1.0 and ok["change"]["q1"] == 1.0


def test_bench_pairs_alternates_the_order_and_reads_the_metric_directions():
    script = load_script("bench_pairs")
    assert [script.sides_in_order(p)[0] for p in range(1, 5)] == [
        "parent", "change", "parent", "change"]
    better = script.directions(ROOT)
    assert better["wall_ref"] == "lower" and better["ok_share"] == "higher"
    assert set(better) == {m["name"] for m in
                           json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def test_bench_pairs_summarizes_layer_metrics_as_medians_over_runs():
    script = load_script("bench_pairs")
    better = script.directions(ROOT, trace=1)
    assert set(better) == {m["name"] for m in
                           json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert better["serialize.emit.s"] == "lower" and better["linalg.rref.work"] == "lower"
    # one descheduled traced pass (the 0.0063 s runs) moves neither median
    emit = {"parent": (0.0047, 0.0046, 0.0063, 0.0048, 0.0045),
            "change": (0.0031, 0.0030, 0.0032, 0.0063, 0.0029)}
    work = {"parent": 73080, "change": 50790}
    runs = {side: [{"serialize.emit.s": e, "linalg.rref.work": work[side],
                    "serialize.bytes_out": 282200} for e in emit[side]] for side in emit}
    wanted = ("serialize.emit.s", "linalg.rref.work", "serialize.bytes_out")
    summary = script.summarize(runs["parent"], runs["change"], {m: better[m] for m in wanted})
    assert summary["pairs"] == 5
    assert summary["serialize.emit.s"]["parent"]["median"] == 0.0047
    assert summary["serialize.emit.s"]["change"]["median"] == 0.0031
    assert summary["serialize.emit.s"]["change_wins"] == 4  # pair 4 is a loss
    assert summary["linalg.rref.work"]["change"] == {"median": 50790, "q1": 50790, "q3": 50790}
    assert summary["linalg.rref.work"]["change_wins"] == 5
    bytes_out = summary["serialize.bytes_out"]
    assert bytes_out["parent"] == bytes_out["change"] and bytes_out["change_wins"] == 0


def test_bench_pairs_refuses_checkouts_at_paths_of_different_length(tmp_path, capsys):
    script = load_script("bench_pairs")
    (tmp_path / "parent").mkdir()
    (tmp_path / "changed").mkdir()
    with pytest.raises(SystemExit) as exc:
        script.main([str(tmp_path / "parent"), str(tmp_path / "changed"),
                     "--workload", "classify_ladder", "--seed", "1"])
    assert exc.value.code == 2
    assert "differ in length" in capsys.readouterr().err


def test_bench_pairs_passes_the_trace_flag_and_reads_the_layer_metrics(monkeypatch):
    script = load_script("bench_pairs")
    calls = []

    def fake_run(argv, cwd, **kwargs):
        calls.append(argv)
        result = {"correct": True, "metrics": {"serialize.emit.s": {"value": 0.003, "unit": "s"}}}
        return subprocess.CompletedProcess(argv, 0, stdout="{}\n" + json.dumps(result) + "\n")

    monkeypatch.setattr(script.subprocess, "run", fake_run)
    assert script.run_once(ROOT, "classify_ladder", 5, 10.0, trace=1) == {"serialize.emit.s": 0.003}
    assert calls[0][calls[0].index("--trace") + 1] == "1"
    script.run_once(ROOT, "classify_ladder", 5, 10.0)
    assert calls[1][calls[1].index("--trace") + 1] == "0"


def test_cli_sweep_finds_no_difference_between_the_repo_and_itself(tmp_path, capsys):
    from toric_cohiggs import cli
    from toric_cohiggs.cohiggs import ToricCoHiggsField, canonical_pair
    from toric_cohiggs.serialize import bundle_to_obj, field_to_obj, save_json

    (tmp_path / "sub").mkdir()
    save_json(tmp_path / "three_lines.json", bundle_to_obj(cli.three_lines_bundle()))
    field = ToricCoHiggsField(*canonical_pair(cli.fan_pn(1)))
    save_json(tmp_path / "sub" / "canonical.json", field_to_obj(field))
    (tmp_path / "sub" / "broken.json").write_text("{")
    script = load_script("cli_sweep")
    calls = script.sweep_calls([tmp_path])
    bundle_verbs = ("check", "classify", "endalg", "chern")
    wanted = [("sub/broken.json", bundle_verbs), ("sub/canonical.json", ("validate-field",)),
              ("three_lines.json", bundle_verbs)]  # sorted by path
    assert calls == [[verb, str(tmp_path.resolve() / name), "--format", fmt]
                     for name, verbs in wanted for verb in verbs for fmt in ("json", "text")]
    assert script.main([str(ROOT), str(ROOT), str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    assert out == "" and err == f"{len(calls)} calls, 0 differ\n"


def test_cli_sweep_prints_each_call_that_differs(tmp_path, monkeypatch, capsys):
    script = load_script("cli_sweep")
    (tmp_path / "field.json").write_text(json.dumps({"tuple": []}))
    results = {"parent": [[1, 0, "e3b0", "error: old\n"], [1, 0, "e3b0", "error: same\n"]],
               "change": [[1, 0, "e3b0", "error: new\n"], [1, 0, "e3b0", "error: same\n"]]}
    monkeypatch.setattr(script, "run_side", lambda checkout, calls: results[checkout.name])
    assert script.main([str(tmp_path / "parent"), str(tmp_path / "change"), str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        f"validate-field {tmp_path / 'field.json'} --format json",
        "  parent: exit 1, stdout 0 bytes sha256 e3b0, stderr 'error: old\\n'",
        "  change: exit 1, stdout 0 bytes sha256 e3b0, stderr 'error: new\\n'",
    ]
    assert err == "2 calls, 1 differ\n"
