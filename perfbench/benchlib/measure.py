"""Measurement arithmetic: percentiles, the steadiness spread, peak
resident memory, and the calibration kernels that bring wall times to
a reference host speed."""

from __future__ import annotations

import math
import os
import resource
import statistics
import time
from collections.abc import Callable, Sequence

import numpy as np

#: Smallest sample that leaves at least ten samples beyond a percentile.
MIN_SAMPLES = {50: 1, 90: 100, 99: 1000}
#: Milliseconds a calibration kernel takes on the reference host. Every
#: time of a measured window is reported at that speed (see
#: :class:`HostSpeed`).
REFERENCE_MS = 10.0
#: What the mixed kernel reads at pseudo-random places: 2 MB of floats.
_TABLE = [float(i) for i in range(1 << 16)]


def _mixed() -> None:
    """Integer arithmetic, then pseudo-random table reads, ``max`` calls
    and list stores."""
    acc, j, row, table = 0, 1, [0.0] * 64, _TABLE
    for i in range(50_000):
        acc += i * i % 7
    for i in range(6_000):
        j = (j * 1103515245 + 12345) & 0xFFFF
        k = i & 63
        row[k] = max(row[k - 1], table[j]) + 1.0


def _recurrence() -> None:
    """A max-plus recurrence over numpy rows, one element at a time, with
    a helper call per step: the shape of the simulator's inner loop."""
    done, cost = np.zeros(64), np.ones(64)

    def prev(row, k):
        return row[k - 1] if k > 0 else 0.0

    for i in range(16_000):
        k = i & 63
        done[k] = max(prev(done, k), cost[k]) + cost[k]


#: The calibration kernels. Each does the same work on every run, takes
#: about ``REFERENCE_MS`` on the host this benchmark was built on and
#: calls nothing of the program. Host slowdowns hit kinds of code
#: unequally: over 150-s traces, ``mixed`` followed the Strict solves
#: (window spread 0.03-0.06 against 0.14-0.28 raw) but not the
#: simulations (0.10-0.17), which ``recurrence`` followed (0.02-0.05).
KERNELS = {"mixed": _mixed, "recurrence": _recurrence}


def calibration_ms(reps: int = 5, kernel: str = "mixed") -> float:
    """Median milliseconds of ``reps`` runs of a calibration kernel: how
    fast the host ran at that moment."""
    run = KERNELS[kernel]
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


class HostSpeed:
    """A calibration kernel, timed between the spans a run measures.

    The host this benchmark was built on changes its speed by a third or
    more, for a fraction of a second up to a minute at a time, with no
    steal time to show for it. A span's wall time, times ``REFERENCE_MS``
    over the mean of the kernel's times just before and just after the
    span, is the time the span would have taken on a host where the
    kernel takes ``REFERENCE_MS``. ``loop(reps)`` times the kernel.
    """

    def __init__(self, loop: Callable[[int], float] = calibration_ms) -> None:
        self._loop = loop
        #: Every kernel time taken, in order; recorded with the result.
        self.ms = [loop(5)]
        #: Seconds spent timing the kernel, to take out of the spans around it.
        self.spent_s = 0.0

    def factor(self, reps: int = 5) -> float:
        """Time the kernel again (median of ``reps`` runs); the factor for
        the span since the last time."""
        t0 = time.perf_counter()
        self.ms.append(self._loop(reps))
        self.spent_s += time.perf_counter() - t0
        return REFERENCE_MS / statistics.mean(self.ms[-2:])


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) of a non-empty sample, linearly
    interpolated between the two nearest ranks (numpy's default)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def latency_ms(latencies_s: Sequence[float]) -> dict[str, float]:
    """``{"p50": ms, "p90": ms, "p99": ms}``, each percentile only where
    the sample leaves ten samples beyond it."""
    return {
        f"p{q}": percentile(latencies_s, q) * 1e3
        for q, need in MIN_SAMPLES.items()
        if len(latencies_s) >= need
    }


def window_metrics(slices: Sequence[tuple[float, int, Sequence[float]]]) -> dict[str, float]:
    """Throughput and latency percentiles of a measured window.

    ``slices`` holds, per slice of the window (a round, or a second of the
    fleet's window), its wall time, its units and the latencies the
    percentiles cover, all at the reference speed. Each metric is the
    median over slices of the slice's own figure: its units over its wall
    time, and the percentiles of its latencies. A slice in which the host
    slowed down then moves none of them. Pooled over the window, a slow
    spell of a few slices filled the top tenth of the latencies and moved
    p90 by a quarter between runs.
    """
    return {
        "units_per_s": statistics.median(units / wall for wall, units, _ in slices),
        "unit_p50_ms": statistics.median(percentile(lat, 50) for _, _, lat in slices) * 1e3,
        "unit_p90_ms": statistics.median(percentile(lat, 90) for _, _, lat in slices) * 1e3,
    }


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile over the median
    (quartiles as ``statistics.quantiles(values, n=4)`` gives them)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def peak_rss_self_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_tree(pid: int) -> list[int]:
    """``pid`` and its live descendants, from ``/proc/<pid>/stat``."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                stat = fh.read()
        except OSError:
            continue  # the process ended while we listed
        # "pid (comm) state ppid ...": comm may hold spaces or parentheses.
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    tree, todo = [], [pid]
    while todo:
        p = todo.pop()
        tree.append(p)
        todo.extend(children.get(p, ()))
    return tree


def peak_rss_tree_mb(pid: int) -> float:
    """Sum of the peak resident memory (VmHWM) of ``pid`` and its live
    descendants."""
    total_kib = 0
    for p in process_tree(pid):
        try:
            with open(f"/proc/{p}/status", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kib / 1024.0
