#!/usr/bin/env python3
"""Alternating benchmark runs of two checkouts, summarized per metric.

Runs ``python3 bench/run.py --workload W --seed S --seconds T --trace X`` in
two checkout directories, PARENT and CHANGE, ``--pairs`` times each, one run
after another.  Odd pairs run the parent first and even pairs the change
first, so that drift in the host's speed falls on both sides alike.  For
every end-to-end metric of the change's ``BENCHMARK.json`` the summary holds
each side's median and quartiles (``statistics.quantiles(n=4,
method='inclusive')``), ``change_wins`` (the pairs in which the change is
strictly better, in the metric's direction) and every run, in pair order.
This is the layout of a ``benchmark.workloads`` entry of the ``BENCH_*.json``
files.

With ``--trace 1`` the runs are traced and the summary covers the per-layer
metrics instead.  A traced run takes its layer times from one pass, so one
descheduled operation can move a layer several times over; the median over
runs of each side is the number to compare.

``serialize.bytes_out`` counts the input path that each report carries, so
the two checkouts must sit at absolute paths of equal length; the script
refuses any other pair.

The summary is printed to stdout as JSON; progress goes to stderr.

Usage: python3 scripts/bench_pairs.py PARENT CHANGE --workload check_ladder \\
           --seed 6022 --pairs 10 --seconds 40 [--trace 1] > pairs.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def directions(checkout: Path, trace: int = 0) -> dict[str, str]:
    """Metric name -> "lower" or "higher", from the checkout's BENCHMARK.json:
    the end-to-end metrics, or the per-layer ones when ``trace`` is 1."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["per_layer" if trace else "end_to_end"]}


def sides_in_order(pair: int) -> tuple[str, str]:
    """The order of the two runs of pair number ``pair``, counted from 1."""
    return ("parent", "change") if pair % 2 else ("change", "parent")


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict[str, float]:
    """The metrics of one benchmark run in ``checkout``: end-to-end, or per layer if traced."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{checkout}: {result['failed']} operations failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def _stats(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def summarize(parent_runs: list[dict], change_runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric of ``better``: both sides' median and quartiles, the change's
    strict wins over the parent of the same pair, and every run."""
    out: dict = {"pairs": len(parent_runs)}
    for name, direction in better.items():
        parent = [run[name] for run in parent_runs]
        change = [run[name] for run in change_runs]
        sign = 1 if direction == "lower" else -1
        out[name] = {
            "parent": _stats(parent),
            "change": _stats(change),
            "change_wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
            "parent_runs": [round(v, 6) for v in parent],
            "change_runs": [round(v, 6) for v in change],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: summarize the per-layer metrics of traced runs")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("need at least 2 pairs for quartiles")
    if len(str(args.parent.resolve())) != len(str(args.change.resolve())):
        parser.error("the checkouts' absolute paths differ in length, so "
                     "serialize.bytes_out would differ for identical reports")
    shown = "serialize.emit.s" if args.trace else "wall_ref"
    runs: dict[str, list] = {"parent": [], "change": []}
    for pair in range(1, args.pairs + 1):
        for side in sides_in_order(pair):
            metrics = run_once(getattr(args, side), args.workload, args.seed, args.seconds,
                               args.trace)
            runs[side].append(metrics)
            print(f"pair {pair} {side} {shown} {metrics[shown]:.4f}", file=sys.stderr,
                  flush=True)
    summary = summarize(runs["parent"], runs["change"], directions(args.change, args.trace))
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
