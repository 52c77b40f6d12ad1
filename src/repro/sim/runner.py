"""Replication runners: many independent simulations, summarized.

Reproduces the paper's Section 7.2/7.3 methodology: run 500 independent
replications of 10…10 000 data sets and report min / max / average /
standard deviation of the throughput estimator.

A study is a :class:`ReplicationSpec`, a declarative record the runner
can see into: every replication runs in one
:func:`~repro.sim.system_sim.simulate_system_batch` recurrence pass, with
the replication axis handled by numpy instead of the interpreter. Each
replication draws from its own spawned generator in the serial draw
order, so a spec's per-replication estimates (and therefore its summary)
are **bit-identical** to calling the spec once per stream.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from repro.mapping.mapping import Mapping
from repro.sim.results import SimulationResult
from repro.sim.stats import OnlineStats, normal_confidence_interval
from repro.sim.system_sim import simulate_system, simulate_system_batch
from repro.types import ExecutionModel


@dataclass(frozen=True)
class ReplicationSpec:
    """A batchable replication study: one system-simulator configuration.

    The record lets the runner *see* the work — mapping, model, law,
    workload size — and run it through the vectorized batch kernel. It is
    also a picklable ``rng -> SimulationResult`` callable: one replication,
    the per-stream oracle of the batch.
    """

    mapping: Mapping
    model: ExecutionModel | str = "overlap"
    n_datasets: int = 1_000
    law: object = "exponential"
    bandwidth_efficiency: float = 1.0
    correlation: str = "independent"

    def __post_init__(self) -> None:
        object.__setattr__(self, "model", ExecutionModel.coerce(self.model))
        if self.n_datasets < 1:
            raise ValueError("n_datasets must be >= 1")

    def with_datasets(self, n_datasets: int) -> "ReplicationSpec":
        """A copy of the spec at a different workload size."""
        return replace(self, n_datasets=n_datasets)

    def __call__(self, rng: np.random.Generator) -> SimulationResult:
        return simulate_system(
            self.mapping,
            self.model,
            n_datasets=self.n_datasets,
            law=self.law,
            rng=rng,
            bandwidth_efficiency=self.bandwidth_efficiency,
            correlation=self.correlation,
        )

    def simulate_batch(
        self, rngs: Sequence[np.random.Generator]
    ) -> list[SimulationResult]:
        """All replications in one vectorized recurrence pass."""
        return simulate_system_batch(
            self.mapping,
            self.model,
            n_datasets=self.n_datasets,
            rngs=rngs,
            law=self.law,
            bandwidth_efficiency=self.bandwidth_efficiency,
            correlation=self.correlation,
        )


@dataclass(frozen=True)
class ReplicationSummary:
    """Summary of the throughput across independent replications."""

    n_replications: int
    mean: float
    std: float
    min: float
    max: float
    ci95: tuple[float, float]

    @property
    def relative_std(self) -> float:
        """Std dev over mean — the paper's ≈2% @5k / ≈1% @10k metric."""
        return self.std / self.mean if self.mean else 0.0


def replication_values(
    spec: ReplicationSpec,
    *,
    n_replications: int,
    seed: int | Sequence[int] = 0,
) -> np.ndarray:
    """Per-replication throughput estimates, shape ``(n_replications,)``.

    The identity contract lives here: for the same ``seed`` the vector is
    byte-identical to the per-stream loop
    ``[spec(rng).throughput for rng in default_rng(seed).spawn(n_replications)]``.
    :func:`replicate` folds this vector into a :class:`ReplicationSummary`;
    tests compare it raw.
    """
    if n_replications < 1:
        raise ValueError("n_replications must be >= 1")
    streams = np.random.default_rng(seed).spawn(n_replications)
    return np.array([run.throughput for run in spec.simulate_batch(streams)])


def replicate(
    spec: ReplicationSpec,
    *,
    n_replications: int,
    seed: int | Sequence[int] = 0,
) -> ReplicationSummary:
    """Run ``n_replications`` independent simulations and summarize.

    Each replication draws from a child generator spawned from ``seed``
    (independent streams) and is scored by the paper's completed/total
    time estimator. The summary folds :func:`replication_values` in
    stream order.
    """
    stats = OnlineStats()
    for value in replication_values(
        spec, n_replications=n_replications, seed=seed
    ):
        stats.push(float(value))
    return ReplicationSummary(
        n_replications=n_replications,
        mean=stats.mean,
        std=stats.std,
        min=stats.min,
        max=stats.max,
        ci95=normal_confidence_interval(stats.mean, stats.std, stats.n),
    )


def _dataset_count(value) -> int:
    """An integral data-set count — integers only, never truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(
            f"dataset_counts entries must be integers, got {value!r}"
        )
    return int(value)


def throughput_vs_datasets(
    spec: ReplicationSpec,
    dataset_counts: Sequence[int],
    *,
    seed: int = 0,
) -> list[tuple[int, float]]:
    """Throughput estimate as a function of the number of data sets.

    Simulates the spec once at ``max(dataset_counts)`` data sets and
    reuses the completion prefix for the smaller counts (exactly how a
    single long run would be inspected over time), yielding the Fig. 10
    convergence series.

    ``dataset_counts`` must hold integers (numpy integer scalars are
    fine); a float count is rejected instead of silently truncated, and
    all validation happens before anything is simulated.
    """
    counts = sorted({_dataset_count(c) for c in dataset_counts})
    if not counts or counts[0] < 1:
        raise ValueError("dataset_counts must contain positive integers")
    result = spec.with_datasets(counts[-1])(np.random.default_rng(seed))
    return [(k, result.throughput_after(k)) for k in counts]
