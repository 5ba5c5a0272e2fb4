"""Run the benchmark on several seeds and summarise every metric.

Run from the repository root:

    python3 bench/baseline.py --out bench/baseline.json

For each workload of BENCHMARK.json it makes one untraced run per seed 1-10,
then two traced runs at the default seed, one after another in this
process's children.  For every end-to-end metric it writes the ten values, their
median and quartiles (``statistics.quantiles(values, n=4)``), the spread
(q3 - q1) / median and the metric's bound from BENCHMARK.json, and the same
summary of the times in seconds from the run records; for every per-layer
metric, the traced values and whether they repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["python3", "bench/run.py"]
SEEDS = list(range(1, 11))
TRACE_RUNS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result object, run record) of one benchmark run."""
    out = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=180,
    ).stdout.strip().splitlines()
    return json.loads(out[-1]), json.loads(out[-2])["run_record"]


def summary(values: list[float], bound: float | None = None) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    out = {"values": values, "median": med, "q1": q1, "q3": q3,
           "spread": (q3 - q1) / med if med else 0.0}
    if bound is not None:
        out["bound"] = bound
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / "bench" / "baseline.json")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"python": platform.python_version(), "run_seconds": seconds,
              "seeds": SEEDS, "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        values: dict[str, list] = {}
        in_seconds: dict[str, list] = {}
        failed = 0
        for seed in SEEDS:
            result, record = run_once(workload, seed, seconds, 0)
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for name in ("setup_raw_median_s", "wall_s", "op_p50_ms", "op_p90_ms", "ref_ms"):
                in_seconds.setdefault(name, []).append(record[name]["value"])
            report["nproc"] = record["nproc"]
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        layers: dict[str, list] = {}
        for _ in range(TRACE_RUNS):
            result, _ = run_once(workload, 1, seconds, 1)
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                layers.setdefault(name, []).append(metric["value"])
        report["workloads"][workload] = {
            "failed": failed,
            "end_to_end": {k: summary(v, bounds[k]) for k, v in values.items()},
            "seconds_in_run_record": {k: summary(v) for k, v in in_seconds.items()},
            "per_layer": {k: {"values": v, "repeats_exactly": len(set(v)) == 1}
                          for k, v in layers.items()},
        }
        for name, s in report["workloads"][workload]["end_to_end"].items():
            print(f"{workload} {name}: median {s['median']:.6g} q1 {s['q1']:.6g} "
                  f"q3 {s['q3']:.6g} spread {s['spread']:.4f} bound {s['bound']}", flush=True)
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
