#!/usr/bin/env python3
"""Repository benchmark: one workload, one seed, one measured window.

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 10 --trace 0

Run it from the repository root; it imports the program from ``src/``.
``--trace 0`` prints every end-to-end metric of BENCHMARK.json and
``--trace 1`` every per-layer metric, each with its unit and sample
count. The program's outputs are checked after the measured window. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
spans included, goes to ``.perfbench_out/``. Exit code: 0 when every
check passed, 1 when one failed, 2 when the program is missing.
perfbench/README.md explains the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("table1", "strict-exp", "fig13", "fleet")
#: Set-ups measured per run, each in a fresh process; setup_s is their
#: median. A fleet set-up also spawns three processes and takes 4-7 s,
#: so the fleet takes fewer, to keep its run under a minute.
SETUP_SAMPLES = 7
FLEET_SETUP_SAMPLES = 3
#: Rounds go on past the window until this many units ran, so that p90
#: always has ten samples beyond it, and until this many rounds ran, so
#: that the median over rounds has a middle.
MIN_UNITS = 100
MIN_ROUNDS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def make_workload(name: str, seed: int):
    if name == "fleet":
        from benchlib.fleet import FleetWorkload

        return FleetWorkload(seed)
    from benchlib.workloads import IN_PROCESS

    return IN_PROCESS[name](seed)


def setup_probe_s(args) -> float:
    """Seconds from spawning a fresh process until its fixture is built."""
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-probe",
    ]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
    return elapsed


def setup_samples(args, host) -> list[float]:
    """Set-up times of fresh processes, at the reference speed.

    The kernel follows imports loosely, so a scaled set-up time spreads
    more from run to run than a raw one. But a slow spell of the host
    that made raw set-ups 2.3 times longer for minutes made the kernel
    1.8 times slower, so scaled set-ups moved only 1.3 times, and it is
    the median over a set of runs that a later change is judged by.
    """
    return [setup_probe_s(args) * host.factor() for _ in range(SETUP_SAMPLES)]


def git_revision() -> str:
    # The ceiling keeps git from reporting an enclosing repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def context(args, scale: dict, calibration: list[float]) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": git_revision(),
        "scale": scale,
        # Every time of the calibration kernel, in the order taken.
        "calibration_ms": calibration,
    }


def run_in_process(wl, seconds: float, traced: bool, host) -> dict:
    """Rounds until the window closes; traced runs pair each round.

    The workload times ``host``'s calibration kernel between segments of
    its units; a round's wall time leaves those timings out, and its
    factor is the mean of its units' factors weighted by their latency.
    A traced run executes every round twice on the same inputs, once
    with the hooks installed and once without, alternating which goes
    first; the ratio of the two wall times at the reference speed is the
    tracing overhead.
    """
    from benchlib.layers import HOOKS
    from benchlib.tracer import Tracer

    clock = time.perf_counter
    tracer = Tracer() if traced else None
    rounds = []  # (round, traced, units, wall_s, factor)
    wl.host = host
    deadline = clock() + seconds
    r = 0
    while clock() < deadline or len(wl.units) < MIN_UNITS or r < MIN_ROUNDS:
        passes = ((False, True) if r % 2 == 0 else (True, False)) if traced else (False,)
        for on in passes:
            before, spent = len(wl.units), host.spent_s
            if on:
                tracer.install(HOOKS)
            t0 = clock()
            try:
                wl.run_round(r, tracer if on else None)
            finally:
                wall = clock() - t0 - (host.spent_s - spent)
                if on:
                    tracer.uninstall()
            wl.close_segment()
            units = wl.units[before:]
            busy = sum(u.latency_s for u in units)
            factor = sum(u.latency_s * u.factor for u in units) / busy
            rounds.append((r, on, len(units), wall, factor))
        r += 1
    return {"rounds": rounds, "tracer": tracer}


def in_process_metrics(
    wl, run: dict, setup: list[float], per_layer: list[str]
) -> tuple[dict, dict]:
    """``(metrics, extra)``: the metrics of the JSON line, plus printed-only
    figures. ``per_layer`` is empty for an untraced run."""
    from benchlib import layers, measure, tracer as tr

    rounds = run["rounds"]
    if not per_layer:
        slices, first = [], 0
        for _r, _on, units, wall, factor in rounds:
            latencies = [u.latency_s * u.factor for u in wl.units[first:first + units]]
            slices.append((wall * factor, units, latencies))
            first += units
        p99 = measure.latency_ms([t for _, _, lat in slices for t in lat]).get("p99")
        return {
            "setup_s": statistics.median(setup),
            **measure.window_metrics(slices),
            "peak_rss_mb": measure.peak_rss_self_mb(),
        }, {"unit_p99_ms": p99, "slices": len(slices), "rounds": rounds}
    tracer = run["tracer"]
    on, off = [], []
    for _r, traced, units, wall, factor in rounds:
        (on if traced else off).append((units, wall, factor))
    wall_on = sum(wall for _, wall, _ in on)
    values = layers.counted(tracer)
    # Spans and wall are both raw times of the traced passes.
    values["unattributed_s"] = tr.unattributed_s(wall_on, tracer.spans)
    values["trace_overhead_frac"] = (
        sum(wall * f for _, wall, f in on) / sum(wall * f for _, wall, f in off) - 1.0
    )
    values["traced_units"] = sum(units for units, _, _ in on)
    metrics = layers.layer_metrics(per_layer, tracer.spans, values)
    top, busy = layers.busiest(metrics)
    return metrics, {
        "busiest": top,
        "busiest_share": busy / wall_on,
        "rounds": rounds,
        "missing_hooks": tracer.missing,
        "nesting_violations": tr.nesting_violations(tracer.spans),
        "spans": tr.span_rows(tracer.spans),
    }


def run_fleet(args, wl, per_layer: list[str]) -> tuple[dict, dict, list[float], object]:
    """Like :func:`in_process_metrics`, for the fleet; also returns the
    set-ups and the window's ``HostSpeed``."""
    from benchlib import measure
    from benchlib.fleet import FleetProcess

    setup: list[float] = []
    fleet = None
    try:
        setup_host = measure.HostSpeed()
        for i in range(FLEET_SETUP_SAMPLES):
            probe = setup_probe_s(args)
            if fleet is not None:
                fleet.stop()
            fleet = FleetProcess(ROOT, OUT, str(i))
            sample = probe + fleet.start() + wl.warm(fleet)
            setup.append(sample * setup_host.factor())
        host = measure.HostSpeed()
        result = wl.measure(fleet, args.seconds, bool(per_layer), host)
    finally:
        if fleet is not None:
            fleet.stop()
    if not per_layer:
        slices = wl.slices()
        return {
            "setup_s": statistics.median(setup),
            **measure.window_metrics(slices),
            "peak_rss_mb": result["peak_rss_mb"],
        }, {
            "unit_p99_ms": measure.latency_ms(wl.latencies()).get("p99"),
            "slices": len(slices),
            "walls": wl.walls,
        }, setup, host
    from benchlib.layers import layer_metrics

    service = result["service"]
    values = dict(service)
    values["unattributed_s"] = result["client_window_s"] - result["client_request_s"]
    # Nothing is wrapped in the fleet and the fleet's counters are read
    # outside the window, so the traced run does no extra work in it.
    values["trace_overhead_frac"] = 0.0
    values["traced_units"] = wl.units()
    # No spans: every in-process layer reads 0.
    metrics = layer_metrics(per_layer, [], values)
    execute = service["service.worker.execute_s"]
    outside = service["service.client.request_s"] - execute
    top = "service outside worker execute" if outside >= execute else "service.worker.execute"
    return metrics, {
        "busiest": top,
        "busiest_share": max(outside, execute) / result["client_request_s"],
        "missing_hooks": [],
    }, setup, host


def _terminate(signum, frame):
    # Unwind through the finally blocks, which stop any fleet still up.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the program's source tree {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    wl = make_workload(args.workload, args.seed)
    if args.setup_probe:
        wl.setup()
        print("ready", flush=True)
        return 0
    from benchlib.measure import REFERENCE_MS, HostSpeed, calibration_ms

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    traced = args.trace == 1
    per_layer = [m["name"] for m in spec["per_layer"]] if traced else []
    # This process imports the program first, so every set-up probe
    # finds its bytecode compiled.
    wl.setup()
    if args.workload == "fleet":
        metrics, extra, setup, host = run_fleet(args, wl, per_layer)
        latencies = wl.latencies()
    else:
        setup = setup_samples(args, HostSpeed())
        host = HostSpeed(functools.partial(calibration_ms, kernel=wl.KERNEL))
        run = run_in_process(wl, args.seconds, traced, host)
        metrics, extra = in_process_metrics(wl, run, setup, per_layer)
        latencies = [u.latency_s for u in wl.units]
    attempted = len(latencies) if args.workload != "fleet" else wl.units()
    failed, messages, notes = wl.check()
    violations = extra.get("nesting_violations", [])
    correct = failed == 0 and not violations

    ctx = context(args, wl.scale, host.ms)
    print(f"workload  {args.workload}  seed {args.seed}  "
          f"{'traced' if traced else 'untraced'} window {args.seconds:g} s")
    print(f"context   {json.dumps(ctx, sort_keys=True)}")
    listed = spec["per_layer"] if traced else spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    counts = {
        "setup_s": f"median of {len(setup)} set-ups",
        "units_per_s": f"{attempted} units, median of {extra.get('slices')} slices",
        "unit_p50_ms": f"n={len(latencies)}",
        "unit_p90_ms": f"n={len(latencies)}",
    }
    for m in listed:
        value = metrics[m["name"]]
        print(f"  {m['name']:34s} {value:>16.6g} {m['unit']:6s} {counts.get(m['name'], '')}")
    if not traced:
        if extra["unit_p99_ms"] is not None:
            print(f"  {'unit_p99_ms (printed only)':34s} {extra['unit_p99_ms']:>16.6g} "
                  f"{'ms':6s} n={len(latencies)}")
        print(f"  {'error_rate (printed only)':34s} {failed / attempted:>16.6g} "
              f"{'ratio':6s} {failed} failed / {attempted} attempted")
        print(f"  calibration kernel: median {statistics.median(host.ms):.3g} ms over "
              f"{len(host.ms)} timings, against the reference {REFERENCE_MS:g} ms")
    else:
        from benchlib.layers import PREDICTED_TOP

        predicted = PREDICTED_TOP[args.workload]
        verdict = "as predicted" if extra["busiest"] == predicted else f"MISMATCH: predicted {predicted}"
        print(f"  busiest layer: {extra['busiest']} "
              f"({extra['busiest_share']:.0%} of traced wall time), {verdict}")
        if extra["missing_hooks"]:
            print(f"  missing hooks (layer reads 0): {', '.join(extra['missing_hooks'])}")
        for line in violations[:5]:
            print(f"  span nesting violated: {line}")
    for note in notes:
        print(f"  check: {note}")
    for line in messages[:10]:
        print(f"  FAILED: {line}")

    record = {
        "context": ctx,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "setup_samples_s": setup,
        "notes": notes,
        "failures": messages[:100],
        **{k: v for k, v in extra.items() if k != "nesting_violations"},
        "nesting_violations": violations[:100],
    }
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
