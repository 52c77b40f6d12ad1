#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs ``perfbench/run.py`` once per seed on every workload of
BENCHMARK.json, tracing off, for its ``run_seconds``, and reports per
end-to-end metric the median and the spread: the distance between the
first and third quartile as a share of the median. A spread above a
third of the metric's bound is flagged. ``--against`` compares each
median with an earlier summary and flags a drift worse than the bound::

    python3 perfbench/steadiness.py --seeds 1-10
    python3 perfbench/steadiness.py --seeds 101-110 \\
        --against .perfbench_out/steadiness-1-10.json

Each run's median calibration kernel time (the kernel that brings its time
metrics to the reference speed) is printed beside its metrics, with its
spread over the runs: how much the host's speed moved.

Exit code 0 when nothing is flagged and every run passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from benchlib.measure import spread  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    """``"1-10"`` or ``"1,4,9"``."""
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: int):
    """``(exit code, JSON result or None, context or None, stderr)``."""
    proc = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = ctx = None
    try:
        result = json.loads(lines[-1]) if lines else None
        ctx = next(
            (json.loads(line.split(None, 1)[1]) for line in lines if line.startswith("context ")),
            None,
        )
    except ValueError:
        pass
    return proc.returncode, result, ctx, proc.stderr


def worse_by(metric: dict, old: float, new: float) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--against", default=None, metavar="SUMMARY.json")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]
    earlier = None
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            earlier = json.load(fh)
    summary = {"seeds": seeds, "seconds": seconds, "workloads": {}, "calibration_ms": {}}
    problems = 0
    for workload in (w["name"] for w in spec["workloads"]):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        calibration = []
        for seed in seeds:
            code, result, ctx, stderr = run_once(workload, seed, seconds)
            if code != 0 or result is None or not result["correct"]:
                problems += 1
                print(f"{workload} seed {seed}: exit {code}\n{stderr[-2000:]}", flush=True)
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            host = statistics.median(ctx["calibration_ms"]) if ctx else None
            if host is not None:
                calibration.append(host)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={v[-1]:.4g}" for name, v in values.items()
            ) + (f" calibration_ms={host:.3g}" if host else ""), flush=True)
        rows = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            v = values[name]
            if len(v) < 2:
                problems += 1
                continue
            row = {"values": v, "median": statistics.median(v), "spread": spread(v), "bound": bound}
            row["flag"] = row["spread"] > bound / 3
            if earlier is not None:
                old = earlier["workloads"].get(workload, {}).get(name)
                if old is not None:
                    row["worse_by"] = worse_by(metric, old["median"], row["median"])
                    row["flag"] = row["flag"] or row["worse_by"] > bound
            problems += row["flag"]
            rows[name] = row
        summary["workloads"][workload] = rows
        if len(calibration) >= 2:
            summary["calibration_ms"][workload] = {
                "values": calibration,
                "median": statistics.median(calibration),
                "spread": spread(calibration),
            }
    print(f"\n{'workload':11s} {'metric':14s} {'median':>10s} {'spread':>8s} "
          f"{'bound/3':>8s} {'worse_by':>9s}")
    for workload, rows in summary["workloads"].items():
        for name, row in rows.items():
            drift = f"{row['worse_by']:+9.3f}" if "worse_by" in row else " " * 9
            print(f"{workload:11s} {name:14s} {row['median']:10.4g} {row['spread']:8.3f} "
                  f"{row['bound'] / 3:8.3f} {drift} {'FLAG' if row['flag'] else ''}")
        host = summary["calibration_ms"].get(workload)
        if host:
            print(f"{workload:11s} {'calibration_ms':14s} {host['median']:10.4g} "
                  f"{host['spread']:8.3f}   (host speed, not gated)")
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    path = os.path.join(ROOT, ".perfbench_out", f"steadiness-{args.seeds.replace(',', '_')}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print(f"summary: {os.path.relpath(path, ROOT)}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
