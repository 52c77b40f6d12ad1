"""Common result record of both simulators."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.maxplus.dater import check_warmup_fraction


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one simulation run.

    ``completion_times`` holds the instants data sets ``0 .. n - 1`` left
    the last stage, sorted: ``completion_times[k]`` is the ``k + 1``-th
    completion in time, whichever data set it was. The paper's estimator
    divides processed instances by total completion time;
    :meth:`throughput_after` reproduces the Fig. 10/11 convergence curves
    from a single run.

    ``latencies`` (system simulator only) holds, per *data set index*
    ``n``, the sojourn time between the start of the data set's first
    computation and the end of its last one — the latency metric of the
    throughput/latency trade-off literature the paper builds on
    (Subhlok & Vondran).
    """

    completion_times: np.ndarray
    n_events: int
    wall_time: float
    latencies: np.ndarray | None = None

    @property
    def n_processed(self) -> int:
        return int(self.completion_times.size)

    @property
    def makespan(self) -> float:
        return float(self.completion_times[-1]) if self.n_processed else 0.0

    @property
    def throughput(self) -> float:
        """Processed data sets divided by total completion time."""
        if self.n_processed == 0 or self.makespan == 0.0:
            return 0.0
        return self.n_processed / self.makespan

    def throughput_after(self, k: int) -> float:
        """Throughput estimate using only the first ``k`` completions."""
        if k < 1 or k > self.n_processed:
            raise ValueError(f"k={k} outside 1..{self.n_processed}")
        t = float(self.completion_times[k - 1])
        return k / t if t > 0 else 0.0

    def windowed_throughput(self, lo: float = 0.1, hi: float = 0.5) -> float:
        """Completion rate inside a quantile window of the run.

        ``(count(hi) - count(lo)) / (t_hi - t_lo)``. Use this on systems
        with heterogeneous branches: under unbounded buffers the branches
        complete at different rates, so once the fast branch exhausts its
        finite workload the tail of the run no longer reflects the steady
        state. A window ending before the first branch exhaustion (e.g.
        ``hi <= 1/m`` of the workload per path times the path count)
        measures the true combined rate.
        """
        if not 0.0 <= lo < hi <= 1.0:
            raise ValueError(f"need 0 <= lo < hi <= 1, got ({lo}, {hi})")
        n = self.n_processed
        i0, i1 = int(n * lo), max(int(n * hi), int(n * lo) + 2)
        if i1 > n:
            raise ValueError("window too narrow for the number of completions")
        t0 = float(self.completion_times[i0 - 1]) if i0 > 0 else 0.0
        t1 = float(self.completion_times[i1 - 1])
        if t1 <= t0:
            return 0.0
        return (i1 - i0) / (t1 - t0)

    def latency_stats(self, *, warmup_fraction: float = 0.2) -> dict[str, float]:
        """Mean / p50 / p95 / max sojourn time (post warm-up).

        Only available from the system simulator, which tracks per-data-set
        entry instants.
        """
        if self.latencies is None:
            raise ValueError("this run did not record latencies")
        check_warmup_fraction(warmup_fraction)
        n = self.latencies.size
        tail = self.latencies[int(n * warmup_fraction):]
        return {
            "mean": float(tail.mean()),
            "p50": float(np.quantile(tail, 0.5)),
            "p95": float(np.quantile(tail, 0.95)),
            "max": float(tail.max()),
        }

    def steady_state_throughput(self, *, warmup_fraction: float = 0.2) -> float:
        """Throughput after discarding a warm-up prefix of completions.

        Removes the transient regime (the TPN literature's "transitive
        period") for a less biased estimate on short runs.
        """
        check_warmup_fraction(warmup_fraction)
        n = self.n_processed
        w = int(n * warmup_fraction)
        if n - w < 2:
            return self.throughput
        t0 = float(self.completion_times[w - 1]) if w > 0 else 0.0
        span = float(self.completion_times[-1]) - t0
        if span <= 0:
            return self.throughput
        return (n - w) / span
