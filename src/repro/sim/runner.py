"""Replication runners: many independent simulations, summarized.

Reproduces the paper's Section 7.2/7.3 methodology: run 500 independent
replications of 10…10 000 data sets and report min / max / average /
standard deviation of the throughput estimator.

The input picks the path. A :class:`ReplicationSpec` — a declarative
record the runner can see into — runs every replication in one
:func:`~repro.sim.system_sim.simulate_system_batch` recurrence pass, with
the replication axis handled by numpy instead of the interpreter; any
other ``rng -> SimulationResult`` callable runs once per spawned stream.
Each replication draws from its own spawned generator in the serial draw
order, so a spec's per-replication estimates (and therefore its summary)
are **bit-identical** to calling the spec once per stream.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

import numpy as np

from repro.mapping.mapping import Mapping
from repro.sim.results import SimulationResult
from repro.sim.stats import OnlineStats, normal_confidence_interval
from repro.sim.system_sim import (
    BatchSimulationResult,
    simulate_system,
    simulate_system_batch,
)
from repro.types import ExecutionModel

#: Recognized values of ``replicate(estimator=)``.
ESTIMATORS = ("total", "steady")


def check_estimator(estimator: str) -> None:
    """Raise ``ValueError`` unless ``estimator`` is one of :data:`ESTIMATORS`."""
    if estimator not in ESTIMATORS:
        raise ValueError(
            f"unknown estimator {estimator!r}; "
            f"available: {', '.join(ESTIMATORS)}"
        )


@dataclass(frozen=True)
class ReplicationSpec:
    """A batchable replication study: one system-simulator configuration.

    Where a bare callable is opaque, this record lets the runner *see*
    the work — mapping, model, law, workload size — and route it to the
    vectorized batch kernel. It is itself a picklable
    ``rng -> SimulationResult`` callable, so it drops into every API that
    accepts a run callable.
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
    ) -> BatchSimulationResult:
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
    run: Callable[[np.random.Generator], SimulationResult] | ReplicationSpec,
    *,
    n_replications: int,
    seed: int | Sequence[int] = 0,
    estimator: str = "total",
) -> np.ndarray:
    """Per-replication throughput estimates, shape ``(n_replications,)``.

    The identity contract lives here: for the same ``seed`` a
    :class:`ReplicationSpec`'s vector is byte-identical to the per-stream
    loop ``[spec(rng) for rng in default_rng(seed).spawn(n_replications)]``.
    :func:`replicate` folds this vector into a :class:`ReplicationSummary`;
    tests compare it raw.
    """
    if n_replications < 1:
        raise ValueError("n_replications must be >= 1")
    check_estimator(estimator)
    streams = np.random.default_rng(seed).spawn(n_replications)
    if isinstance(run, ReplicationSpec):
        batch = run.simulate_batch(streams)
        if estimator == "total":
            return batch.throughput()
        return batch.steady_state_throughput()
    if estimator == "total":
        return np.array([run(rng).throughput for rng in streams])
    return np.array([run(rng).steady_state_throughput() for rng in streams])


def replicate(
    run: Callable[[np.random.Generator], SimulationResult] | ReplicationSpec,
    *,
    n_replications: int,
    seed: int | Sequence[int] = 0,
    estimator: str = "total",
) -> ReplicationSummary:
    """Run ``n_replications`` independent simulations and summarize.

    ``run`` receives a child generator spawned from ``seed`` (independent
    streams). ``estimator`` selects ``"total"`` (paper's completed/total
    time) or ``"steady"`` (warm-up discarded). The summary folds
    :func:`replication_values` in stream order.
    """
    stats = OnlineStats()
    for value in replication_values(
        run, n_replications=n_replications, seed=seed, estimator=estimator
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
    run: Callable[[np.random.Generator, int], SimulationResult]
    | ReplicationSpec,
    dataset_counts: Sequence[int],
    *,
    seed: int = 0,
) -> list[tuple[int, float]]:
    """Throughput estimate as a function of the number of data sets.

    Simulates once at ``max(dataset_counts)`` and reuses the completion
    prefix for the smaller counts (exactly how a single long run would be
    inspected over time), yielding the Fig. 10 convergence series.

    ``dataset_counts`` must hold integers (numpy integer scalars are
    fine); a float count is rejected instead of silently truncated, and
    all validation happens before ``run`` is invoked. ``run`` may be a
    ``(rng, n) -> SimulationResult`` callable or a
    :class:`ReplicationSpec`, whose workload size is swept.
    """
    counts = sorted({_dataset_count(c) for c in dataset_counts})
    if not counts or counts[0] < 1:
        raise ValueError("dataset_counts must contain positive integers")
    if isinstance(run, ReplicationSpec):
        spec = run

        def run(rng, n, _spec=spec):
            return _spec.with_datasets(n)(rng)

    rng = np.random.default_rng(seed)
    result = run(rng, counts[-1])
    return [(k, result.throughput_after(k)) for k in counts]
