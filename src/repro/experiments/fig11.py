"""Figure 11 — dispersion of the throughput estimator across 500 runs.

Same system as Fig. 10. For each number of processed data sets
(10 … 10 000) the paper reports min / max / average / standard deviation
of the exponential-times throughput over 500 independent runs. Expected
shape: the dispersion shrinks with the run length — standard deviation
around 2 % of the mean at 5 000 data sets and around 1 % at 10 000.

Each run length is one :class:`~repro.sim.runner.ReplicationSpec`, so
:func:`~repro.sim.runner.replicate` evaluates all its replications in
one vectorized recurrence pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.evaluate import evaluate
from repro.experiments.common import ExperimentResult
from repro.experiments.fig10 import paper_system
from repro.sim.runner import ReplicationSpec, replicate


@dataclass
class Fig11Config:
    dataset_counts: list[int] = field(
        default_factory=lambda: [10, 50, 100, 500, 1000, 5000, 10_000]
    )
    n_replications: int = 500
    seed: int = 11


def run(config: Fig11Config | None = None) -> ExperimentResult:
    config = config or Fig11Config()
    mp = paper_system()
    result = ExperimentResult(
        name="fig11",
        description="min/max/avg/std of throughput across replications (exp times)",
        columns=[
            "n_datasets",
            "n_runs",
            "min",
            "avg",
            "max",
            "std",
            "rel_std_pct",
        ],
    )
    for k in config.dataset_counts:
        summary = replicate(
            ReplicationSpec(mp, "overlap", n_datasets=k, law="exponential"),
            n_replications=config.n_replications,
            seed=config.seed,
        )
        result.add(
            n_datasets=k,
            n_runs=config.n_replications,
            min=summary.min,
            avg=summary.mean,
            max=summary.max,
            std=summary.std,
            rel_std_pct=100.0 * summary.relative_std,
        )
    result.notes.append(
        f"theoretical exponential throughput: "
        f"{evaluate(mp, solver='exponential'):.6g}"
    )
    result.notes.append(
        "paper: std dev ≈2% of the mean at 5,000 data sets, ≈1% at 10,000"
    )
    return result
