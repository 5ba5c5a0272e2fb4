"""Benchmark of the toric-cohiggs command line: check, classify, validate-field.

Run from the repository root:

    python3 bench/run.py --workload check_ladder --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --pin-reference      # re-pin bench/reference.json

Workloads (why each was chosen is in BENCHMARK.json): ``check_ladder``,
``classify_ladder`` and ``random_mix``.  A run imports ``toric_cohiggs`` from
``src/`` and writes the workload's input files (set-up, repeated and timed),
then calls the public
entry point ``toric_cohiggs.cli.main(argv)`` in-process, one verb call per
input with ``--format json`` and stdout captured, pass after pass until
``--seconds`` have elapsed.  It is single-process and single-threaded.  Every
operation's output is checked (``checks.py``).

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s`` (median
set-up), ``wall_ref`` (median pass), ``op_p50_ref``/``op_p90_ref``
(percentiles over operations of each operation's median latency),
``peak_rss_mb``, ``ok_share`` (1 - failed share) and ``decided_share``
(1 - share of check verdicts that are ``indeterminate``).  With ``--trace 1``
every pass runs each operation twice back to back, untraced and traced; the
spans of the first pass give the per-layer metrics of ``spans.LAYER_METRICS``,
and ``trace.overhead`` is the median over passes of traced over untraced
seconds, minus 1.

Times are measured against a fixed reference computation
(``reference_sample``) timed in the same process: every half second between
operations, and just before each set-up repeat.  On a shared host the speed
of everything drifts, by a third within a few minutes as measured on a
2-core VM, and that drift cancels in the ratio.  A pass and its operations
are divided by the median reference of that pass; the ``*_ref`` metrics are
these ratios.  ``setup_s`` is the median of set-up over its reference,
converted back to seconds at a fixed ``REF_SECONDS`` per unit.  The same
times in plain seconds (``wall_s``, ``op_p50_ms``, ``op_p90_ms``,
``setup_raw_median_s``) and the reference's own time are in the run record.

The last stdout line is the result object; the line before it is the run
record (environment, seed, times in seconds, failed and undecided shares).

Which layer metric should move which end-to-end metric, and where:

- ``linalg.rref.calls|s|work`` (work is sum of rows*cols*rank) and
  ``linalg.as_vec.calls`` (Fraction re-coercion): ``wall_ref`` on all three
  workloads; the largest eliminations are in classify_ladder, the most calls
  in check_ladder.
- ``linalg.intersect.*``, ``linalg.subspace_sum.*`` and
  ``bundles.cone_grading.calls|self_s``: ``wall_ref`` and ``op_p90_ref`` on
  check_ladder; no change on classify_ladder.
- ``bundles.oracle.*`` and ``bundles.verdict.*``: ``op_p90_ref`` and
  ``decided_share`` on random_mix; the ladders make no oracle calls.
- ``linalg.kernel.*``, ``linalg.solve_linear.*`` and ``endalg.*``: ``wall_ref``
  on classify_ladder; zero on the other two workloads.
- ``fans.*``, ``cohiggs.classify.self_s``, ``cohiggs.validate_field.s``,
  ``cohiggs.verify_integrability.s``, ``serialize.*`` and ``cli.main.*``:
  ``op_p50_ref`` on random_mix, where fixed per-call cost is the largest
  share, and ``setup_s``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import spans
import workloads

PACKAGE = "toric_cohiggs"
LAYERS = ("linalg", "fans", "bundles", "endalg", "cohiggs", "serialize", "cli")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"
DEFAULT_SEED = 1
SEEDED = ("random_mix",)  # workloads whose inputs depend on the seed
SETUP_REPEATS = 21

_REF_RNG = random.Random("reference")
REF_MATRICES = tuple(
    tuple(tuple(_REF_RNG.randint(-3, 3) for _ in range(10)) for _ in range(10)) for _ in range(8)
)
REF_EVERY_S = 0.5
# Seconds per reference unit in ``setup_s``, fixed: about the reference's
# median time on a 2-core x86-64 VM (16-20 ms there, depending on load).
REF_SECONDS = 0.016


def reference_sample() -> float:
    """Seconds taken by the reference computation: the unit of the *_ref metrics.

    Exact Fraction elimination of fixed integer matrices, the same kind of
    work as the program's.  Editing it, or ``checks.rank``, changes the unit.
    """
    start = time.perf_counter()
    for m in REF_MATRICES:
        checks.rank(m)
    return time.perf_counter() - start


def import_library() -> dict:
    """Import the package afresh; returns its layer modules by short name."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(f"{PACKAGE}.cli")
    return {name: sys.modules[f"{PACKAGE}.{name}"] for name in LAYERS}


def setup(name: str, seed: int, work: Path, repeats: int = SETUP_REPEATS):
    """Import, build the inputs and write them, ``repeats`` times.

    Returns the modules, the workload, and per repeat (set-up seconds,
    seconds of the reference timed just before it).
    """
    times = []
    for _ in range(repeats):
        shutil.rmtree(work, ignore_errors=True)
        ref = reference_sample()
        start = time.perf_counter()
        modules = import_library()
        workload = workloads.build(name, seed)
        workload.write(work)
        times.append((time.perf_counter() - start, ref))
    return modules, workload, times


def call(main, argv):
    """One in-process CLI call: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash fails this operation; the run goes on
        code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def run_pass(main, ops, work: Path):
    """One pass over the ops: (wall seconds, reference seconds, [(op seconds, code, stdout)]).

    The reference computation is timed between operations every
    ``REF_EVERY_S``; the median of those samples is the pass's reference, and
    their time is not part of the pass.
    """
    results, ref_samples = [], []
    last_ref = float("-inf")
    pass_start = time.perf_counter()
    for op in ops:
        if time.perf_counter() - last_ref >= REF_EVERY_S:
            ref_samples.append(reference_sample())
            last_ref = time.perf_counter()
        argv = [op.verb, str(work / op.file), "--format", "json"]
        start = time.perf_counter()
        code, out, _ = call(main, argv)
        results.append((time.perf_counter() - start, code, out))
    wall = time.perf_counter() - pass_start - sum(ref_samples)
    return wall, statistics.median(ref_samples), results


def paired_pass(modules, ops, work: Path, recorder):
    """One pass in which every op runs twice back to back, untraced and traced.

    Returns (untraced seconds, traced seconds, [(op, code, stdout)] of both
    runs).  Which run goes first alternates from op to op, so that any head
    start of the second run cancels; the two sums are taken seconds apart, so
    drift in the host's speed cancels in their ratio.
    """
    main = modules["cli"].main
    traced_main = recorder.span("cli.main", main)
    seconds = {False: 0.0, True: 0.0}
    results = []
    for idx, op in enumerate(ops):
        recorder.op = idx
        argv = [op.verb, str(work / op.file), "--format", "json"]
        for traced in (True, False) if idx % 2 else (False, True):
            restore = recorder.install(modules) if traced else None
            try:
                start = time.perf_counter()
                code, out, _ = call(traced_main if traced else main, argv)
                seconds[traced] += time.perf_counter() - start
            finally:
                if restore is not None:
                    restore()
            results.append((op, code, out))
    return seconds[False], seconds[True], results


def paced(budget: float):
    """Yields until one more round, at the median pace so far, would end after ``budget`` s."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start + statistics.median(rounds) <= budget:
        round_start = time.perf_counter()
        yield
        rounds.append(time.perf_counter() - round_start)


class Tally:
    """Checks every operation's output and counts outcomes."""

    def __init__(self, pinned: dict | None):
        self.pinned = pinned or {}
        self.verified: dict = {}  # op id -> (sha256 of stdout, status)
        self.attempted = self.failed = self.checks = self.undecided = 0
        self.failures: list[str] = []

    def add(self, op, code, out: str) -> None:
        self.attempted += 1
        key = hashlib.sha256(out.encode()).hexdigest()
        cached = self.verified.get(op.op_id)
        if code == 0 and cached is not None and cached[0] == key:
            status = cached[1]
        else:
            failure, report = checks.output_failure(op, code, out, self.pinned.get(op.op_id))
            if failure is not None:
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append(f"{op.op_id}: {failure}")
                return
            status = checks.status_of(report)
            self.verified[op.op_id] = (key, status)
        if op.verb == "check":
            self.checks += 1
            self.undecided += status == "indeterminate"

    def add_pass(self, ops, results) -> None:
        for op, (_, code, out) in zip(ops, results):
            self.add(op, code, out)


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 1]."""
    vals = sorted(values)
    pos = q * (len(vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def load_reference(name: str, seed: int) -> dict | None:
    if not REFERENCE.is_file():
        return None
    entry = json.loads(REFERENCE.read_text()).get(name)
    if entry is None or entry["seed"] not in (None, seed):
        return None
    return entry["ops"]


def pin_reference(work_root: Path) -> int:
    """Run one checked pass of every workload at the default seed and pin its reports."""
    pinned = {}
    for name in workloads.WORKLOADS:
        work = work_root / f"pin-{name}-{os.getpid()}"
        try:
            modules, workload, _ = setup(name, DEFAULT_SEED, work, repeats=1)
            _, _, results = run_pass(modules["cli"].main, workload.ops, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        tally = Tally(None)
        tally.add_pass(workload.ops, results)
        if tally.failed:
            print(f"{name}: not pinned, {tally.failed} outputs fail: {tally.failures}", file=sys.stderr)
            return 1
        ops = {}
        for op, (_, _, out) in zip(workload.ops, results):
            report = json.loads(out)
            ops[op.op_id] = {"sha256": checks.canonical_digest(report),
                             "status": checks.status_of(report)}
        pinned[name] = {"seed": DEFAULT_SEED if name in SEEDED else None, "ops": ops}
    REFERENCE.write_text(json.dumps(pinned, sort_keys=True, indent=1) + "\n")
    print(f"pinned {REFERENCE}")
    return 0


def measure(args, work: Path, work_root: Path) -> tuple[dict, dict, Tally]:
    """The timed part of a run: (metrics, run record fields, tally)."""
    modules, workload, setups = setup(args.workload, args.seed, work)
    tally = Tally(load_reference(args.workload, args.seed))
    ops = workload.ops
    record = {
        "setup_raw_s": [t for t, _ in setups],
        "setup_ref_s": [r for _, r in setups],
        "setup_raw_median_s": {"value": statistics.median(t for t, _ in setups), "unit": "s"},
        "ops_per_pass": len(ops),
        "oracle_limit": modules["bundles"].DEFAULT_ORACLE_LIMIT,
    }
    if args.trace:
        recorder = spans.Recorder()  # keeps the spans of the first pass
        plain, traced = [], []
        for _ in paced(args.seconds):
            u, t, results = paired_pass(modules, ops, work, recorder if not plain else spans.Recorder())
            plain.append(u)
            traced.append(t)
            for op, code, out in results:
                tally.add(op, code, out)
        overhead = statistics.median(t / u for u, t in zip(plain, traced)) - 1
        trace_file = work_root / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        recorder.write(trace_file)
        record.update(paired_untraced_s=plain, paired_traced_s=traced, spans=len(recorder.spans),
                      trace_file=str(trace_file.relative_to(ROOT)))
        return spans.layer_report(recorder, overhead), record, tally

    main = modules["cli"].main
    walls, refs, op_times = [], [], [[] for _ in ops]
    for _ in paced(args.seconds):
        wall, ref, results = run_pass(main, ops, work)
        walls.append(wall)
        refs.append(ref)
        for times, (seconds, _, _) in zip(op_times, results):
            times.append(seconds)
        tally.add_pass(ops, results)
    # Each time is divided by the reference of its own pass, so drift in the
    # host's speed between passes cancels.
    wall_ref = statistics.median(w / r for w, r in zip(walls, refs))
    per_op_ref = [statistics.median(t / r for t, r in zip(times, refs)) for times in op_times]
    per_op_s = [statistics.median(times) for times in op_times]
    record.update(
        pass_wall_s=walls,
        pass_ref_s=refs,
        samples_per_op=len(walls),
        wall_s={"value": statistics.median(walls), "unit": "s"},
        op_p50_ms={"value": percentile(per_op_s, 0.5) * 1000, "unit": "ms"},
        op_p90_ms={"value": percentile(per_op_s, 0.9) * 1000, "unit": "ms"},
        ref_ms={"value": statistics.median(refs) * 1000, "unit": "ms"},
    )
    metrics = {
        "setup_s": (statistics.median(t / r for t, r in setups) * REF_SECONDS, "s"),
        "wall_ref": (wall_ref, "ref"),
        "op_p50_ref": (percentile(per_op_ref, 0.5), "ref"),
        "op_p90_ref": (percentile(per_op_ref, 0.9), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_share": (1 - tally.failed / tally.attempted, "share"),
        "decided_share": (1 - tally.undecided / tally.checks if tally.checks else 1.0, "share"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, record, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin-reference", action="store_true",
                        help="re-pin bench/reference.json from the current program")
    args = parser.parse_args(argv)
    if not args.pin_reference and args.workload is None:
        parser.error("--workload is required")

    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    oracle_env = os.environ.pop("TVB_ORACLE_LIMIT", None)  # pinned to the default
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.pin_reference:
            return pin_reference(work_root)
        metrics, record, tally = measure(args, work, work_root)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work_root.iterdir()):
            work_root.rmdir()
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        python=platform.python_version(),
        implementation=platform.python_implementation(),
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
        TVB_ORACLE_LIMIT="unset",
        TVB_ORACLE_LIMIT_found=oracle_env,  # removed from the environment, if set
        reference_applied=bool(tally.pinned),
        attempted=tally.attempted,
        failed_share=tally.failed / tally.attempted,
        undecided_share=tally.undecided / tally.checks if tally.checks else 0.0,
        failures=tally.failures,
    )
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
