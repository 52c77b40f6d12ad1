"""The self-heal chaos benchmark, ``service.selfheal``.

``python -m repro.cli bench`` runs it and writes a JSON report
(``BENCH_PR1.json`` by default, or the raw JSON on stdout with
``--output -``). A cyclic trace of deterministic solves runs against a
*supervised* 4-worker fleet, once clean and once with
kill-every-k-batches chaos: a worker is torn down abruptly every k
requests and the :class:`FleetSupervisor` respawns it mid-trace. The
report records recovery latency (kill → respawn), goodput retained
under chaos vs the clean pass, respawn and failover counts, and asserts
the chaos pass's values byte-identical to the clean pass (self-healing
must never lose or duplicate a unit).

The repository benchmark is ``perfbench/``. This module stays only
until ``perfbench/`` has a chaos workload that measures the self-heal
penalty (ROADMAP item 4); a later change then deletes this module and
the ``bench`` command together.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import time
from collections.abc import Callable
from functools import partial

import numpy as np


def _git_revision() -> str | None:
    """The repo's short HEAD revision, or None outside a git checkout.

    Recorded into every report's ``meta`` so a BENCH_*.json file stays
    attributable to the exact tree that produced it even after it is
    copied out of the repository.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5.0,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    revision = out.stdout.strip()
    return revision if out.returncode == 0 and revision else None


def _timed(fn: Callable[[], object], repeats: int) -> tuple[float, object]:
    """Median wall time over ``repeats`` runs and the last return value.

    One untimed warm-up call precedes the measurement, so lazy imports and
    first-touch allocations don't skew whichever engine runs first.
    """
    fn()
    times = []
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), value


def run_benchmarks(
    *, quick: bool = False, repeats: int | None = None
) -> dict:
    """Run ``service.selfheal`` and return the report dict."""
    if repeats is None:
        repeats = 2 if quick else 5
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    engines: dict[str, dict] = {}

    from repro.service import local_fleet

    # Kill-every-k chaos against a supervised fleet. The clean pass
    # times the trace on a healthy fleet; the chaos pass abruptly
    # kills a worker every `heal_kill_every` batches (cycling the
    # victim) and blocks until the supervisor has respawned it, so
    # the measured wall time *includes* every recovery. Recovery is
    # the kill -> respawn latency; goodput retained is clean/chaos
    # wall time; the values must match the clean pass exactly —
    # supervised respawn, breaker probes and re-dispatch must never
    # lose or duplicate a unit.
    if quick:
        heal_pairs = [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3)]
        heal_rounds = 2
    else:
        heal_pairs = [
            (2, 3), (2, 5), (3, 2), (5, 2), (2, 4), (3, 4), (4, 2),
            (4, 3), (3, 3), (2, 6), (5, 5), (6, 2), (2, 2), (4, 4),
        ]
        heal_rounds = 3
    heal_tasks = [
        {
            "system": {
                "kind": "single_communication",
                "params": {"u": u, "v": v, "comm_time": 1.0},
            },
            "solver": "deterministic",
            "model": "overlap",
            "options": {},
        }
        for (u, v) in heal_pairs
    ]
    heal_batch = 2
    heal_kill_every = 3

    def _run_selfheal(chaos: bool) -> dict:
        values: list = []
        recoveries: list[float] = []
        batches = 0
        victim = 1
        with local_fleet(4, breaker_cooldown_s=0.05) as fleet:
            supervisor = fleet.make_supervisor(
                check_interval=0.02, max_restarts=1000,
            )
            supervisor.start()
            with fleet.client() as client:
                for _ in range(heal_rounds):
                    for start in range(0, len(heal_tasks), heal_batch):
                        if (
                            chaos and batches
                            and batches % heal_kill_every == 0
                        ):
                            name = f"w{victim}"
                            victim = victim % 3 + 1  # cycle w1..w3
                            before = supervisor.respawns
                            t0 = time.monotonic()
                            fleet.kill_worker(name)
                            deadline = t0 + 30.0
                            while supervisor.respawns == before:
                                if time.monotonic() > deadline:
                                    raise RuntimeError(
                                        f"supervisor never respawned "
                                        f"{name}"
                                    )
                                time.sleep(0.005)
                            recoveries.append(time.monotonic() - t0)
                        vals, fails, _stats = client.evaluate_batch(
                            heal_tasks[start:start + heal_batch]
                        )
                        assert not fails
                        values.extend(vals)
                        batches += 1
                stats = client.stats()
        orch = stats["orchestrator"]
        return {
            "values": values,
            "failovers": orch["failovers"],
            "respawns": stats["supervisor"]["respawns"],
            "recoveries": recoveries,
        }

    heal_units = heal_rounds * len(heal_pairs)
    clean_t, clean = _timed(
        partial(_run_selfheal, False), max(1, repeats // 2)
    )
    chaos_t, chaos = _timed(
        partial(_run_selfheal, True), max(1, repeats // 2)
    )
    engines["service.selfheal"] = {
        "median_s": chaos_t,
        "clean_s": clean_t,
        "n_workers": 4,
        "units": heal_units,
        "kill_every_batches": heal_kill_every,
        "kills": len(chaos["recoveries"]),
        "respawns": chaos["respawns"],
        "recovery_p50_s": (
            statistics.median(chaos["recoveries"])
            if chaos["recoveries"] else None
        ),
        "recovery_max_s": (
            max(chaos["recoveries"]) if chaos["recoveries"] else None
        ),
        "failovers": chaos["failovers"],
        "goodput_clean_units_per_s": heal_units / max(clean_t, 1e-12),
        "goodput_chaos_units_per_s": heal_units / max(chaos_t, 1e-12),
        "goodput_retained": clean_t / max(chaos_t, 1e-12),
        "values_identical_to_clean": chaos["values"] == clean["values"],
        "no_lost_or_duplicated_units": (
            len(chaos["values"]) == heal_units
        ),
    }

    return {
        "meta": {
            "bench": "service.selfheal",
            "quick": quick,
            "repeats": repeats,
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "git_revision": _git_revision(),
        },
        "engines": engines,
    }


def write_report(report: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def render_report(report: dict) -> str:
    lines = ["engine                       median_s      scale"]
    for name, row in sorted(report["engines"].items()):
        scale = {k: v for k, v in row.items() if k != "median_s"}
        detail = ", ".join(f"{k}={v}" for k, v in scale.items())
        lines.append(f"{name:28s} {row['median_s']:9.4f}      {detail}")
    return "\n".join(lines)
