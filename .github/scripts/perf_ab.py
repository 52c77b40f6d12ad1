#!/usr/bin/env python3
"""Same-runner A/B gate on the repository benchmark.

    python3 .github/scripts/perf_ab.py BASE_DIR HEAD_DIR OUT.json

BASE_DIR and HEAD_DIR are two checkouts of the repository, such as
``git archive`` exports of a pull request's base and head. Each side
runs its own ``perfbench/run.py``, tracing off, for the ``run_seconds``
of the head's BENCHMARK.json, ``PAIRS`` times per workload with seeds
1 to ``PAIRS``. Pair i (counted from 0) runs the base first when i is
even and the head first when i is odd. A workload that the base's
BENCHMARK.json does not list is skipped, with a note.

Each end-to-end metric of the head's BENCHMARK.json is judged on each
workload. It has regressed when both hold:

* the head median is worse than the base median by more than the
  metric's bound;
* the head is worse in every pair, so that one slow spell of the
  runner cannot fail the gate.

A run that exits nonzero or reports ``correct: false`` fails the gate
too. Every pair and one verdict line per metric are printed, and all
runs and verdicts are written to OUT.json. Exit code 0 when no metric
regressed and every run passed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

#: The paper workloads. ``fleet`` stays out: its set-up spawns a fleet
#: and its window spread is the widest of the four.
WORKLOADS = ("table1", "strict-exp", "fig13")
#: Pairs per workload. Where base and head are alike, a metric reads
#: worse in all five pairs one time in 32, and then must still move its
#: median past the bound.
PAIRS = 5


def load_spec(tree: str) -> dict:
    with open(os.path.join(tree, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(
    tree: str, workload: str, seed: int, seconds: float
) -> tuple[int, dict | None]:
    """``(exit code, last JSON line of stdout)`` of one run of ``tree``'s
    benchmark; the line is None when stdout does not end in JSON."""
    proc = subprocess.run(
        [
            sys.executable, os.path.join("perfbench", "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode, None


def run_passed(run: dict) -> bool:
    result = run["result"]
    return run["exit"] == 0 and result is not None and result["correct"] is True


def metric_value(run: dict, name: str) -> float | None:
    metric = (run["result"] or {}).get("metrics", {}).get(name)
    return None if metric is None else metric["value"]


def worse_by(better: str, base: float, head: float) -> float:
    """How much worse ``head`` is than ``base``, as a share of ``base``."""
    change = (head - base) / base
    return change if better == "lower" else -change


def judge(workload: str, metric: dict, pairs: list[dict]) -> dict:
    name = metric["name"]
    verdict = {
        "workload": workload, "metric": name,
        "better": metric["better"], "bound": metric["bound"],
    }
    values = [
        (metric_value(p["base"], name), metric_value(p["head"], name))
        for p in pairs
    ]
    if any(b is None or h is None for b, h in values):
        return {**verdict, "status": "not judged"}
    base_median = statistics.median(b for b, _ in values)
    head_median = statistics.median(h for _, h in values)
    worse = worse_by(metric["better"], base_median, head_median)
    worse_pairs = sum(worse_by(metric["better"], b, h) > 0 for b, h in values)
    regressed = worse > metric["bound"] and worse_pairs == len(values)
    return {
        **verdict,
        "base_median": base_median, "head_median": head_median,
        "worse_frac": worse, "worse_pairs": worse_pairs,
        "pairs": len(values),
        "status": "regressed" if regressed else "ok",
    }


def pair_line(workload: str, pair: dict, names: list[str]) -> str:
    first = "base" if pair["base"]["order"] == 0 else "head"
    parts = [f"{workload} seed {pair['base']['seed']} ({first} first)"]
    for side in ("base", "head"):
        run = pair[side]
        if not run_passed(run):
            correct = (run["result"] or {}).get("correct")
            parts.append(f"{side} FAILED (exit {run['exit']}, correct {correct})")
    for name in names:
        base, head = metric_value(pair["base"], name), metric_value(pair["head"], name)
        if base is not None and head is not None:
            parts.append(f"{name} {base:.4g} -> {head:.4g}")
    return "  ".join(parts)


def verdict_line(v: dict) -> str:
    line = f"{v['status'].upper()} {v['workload']} {v['metric']}"
    if "base_median" not in v:
        return line
    change = "worse" if v["worse_frac"] > 0 else "better"
    return (f"{line}: base median {v['base_median']:.4g}, head median "
            f"{v['head_median']:.4g} ({abs(v['worse_frac']):.1%} {change}, bound "
            f"{v['bound']:.0%}), head worse in {v['worse_pairs']}/{v['pairs']} pairs")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_dir")
    parser.add_argument("head_dir")
    parser.add_argument("out_json")
    args = parser.parse_args(argv)
    trees = {"base": args.base_dir, "head": args.head_dir}
    base_spec, head_spec = load_spec(args.base_dir), load_spec(args.head_dir)
    listed = {w["name"] for w in base_spec["workloads"]}
    metrics = head_spec["end_to_end"]
    names = [m["name"] for m in metrics]
    seconds = head_spec["run_seconds"]
    runs: list[dict] = []
    verdicts: list[dict] = []
    notes: list[str] = []
    for workload in WORKLOADS:
        if workload not in listed:
            notes.append(f"{workload} skipped: the base BENCHMARK.json does not list it")
            print(notes[-1], flush=True)
            continue
        pairs = []
        for i in range(PAIRS):
            pair = {}
            for order, side in enumerate(("base", "head") if i % 2 == 0 else ("head", "base")):
                code, result = run_once(trees[side], workload, i + 1, seconds)
                pair[side] = {
                    "workload": workload, "seed": i + 1, "side": side,
                    "order": order, "exit": code, "result": result,
                }
                runs.append(pair[side])
            pairs.append(pair)
            print(pair_line(workload, pair, names), flush=True)
        for metric in metrics:
            verdicts.append(judge(workload, metric, pairs))
            print(verdict_line(verdicts[-1]), flush=True)
    failed = [r for r in runs if not run_passed(r)]
    regressed = [f"{v['workload']} {v['metric']}" for v in verdicts if v["status"] == "regressed"]
    ok = not failed and not regressed
    with open(args.out_json, "w", encoding="utf-8") as fh:
        json.dump({
            "base": args.base_dir, "head": args.head_dir,
            "workloads": list(WORKLOADS), "pairs": PAIRS, "seconds": seconds,
            "ok": ok, "notes": notes, "verdicts": verdicts, "runs": runs,
        }, fh, indent=1)
        fh.write("\n")
    if ok:
        print(f"perf-ab: PASS ({len(runs)} runs, {len(verdicts)} verdicts)")
        return 0
    print(f"perf-ab: FAIL: {len(failed)} failed run(s); regressed: "
          f"{', '.join(regressed) or 'none'}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
