"""Figure 10 — throughput vs number of processed data sets.

System: a 7-stage pipeline replicated (1, 3, 4, 5, 6, 7, 1) on a
homogeneous platform. Four measured series (constant / exponential times ×
system-simulator / event-graph-simulator) plus the theoretical constant
value. Expected shape: every series converges to its theoretical value —
within 1 % by 50 000 data sets — and the exponential and constant curves
stay close to each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field


from repro.evaluate import evaluate
from repro.experiments.common import ExperimentResult
from repro.mapping.mapping import Mapping
from repro.petri import build_overlap_tpn
from repro.sim.runner import ReplicationSpec, throughput_vs_datasets
from repro.sim.tpn_sim import simulate_tpn


def paper_system(
    *, work: float = 10.0, file_size: float = 10.0
) -> Mapping:
    """The 7-stage system of Figs. 10/11, replicated (1,3,4,5,6,7,1)."""
    from repro.mapping.examples import uniform_chain

    return uniform_chain(
        [1, 3, 4, 5, 6, 7, 1], work=work, file_size=file_size
    )


@dataclass
class Fig10Config:
    dataset_counts: list[int] = field(
        default_factory=lambda: [100, 500, 1000, 5000, 10_000, 25_000, 50_000]
    )
    seed: int = 10


def run(config: Fig10Config | None = None) -> ExperimentResult:
    config = config or Fig10Config()
    mp = paper_system()
    result = ExperimentResult(
        name="fig10",
        description="throughput vs number of processed data sets",
        columns=[
            "n_datasets",
            "cst_theory",
            "cst_system",
            "exp_system",
            "cst_tpn",
            "exp_tpn",
            "exp_theory",
        ],
    )
    cst_theory = evaluate(mp, solver="deterministic")
    exp_theory = evaluate(mp, solver="exponential")
    n_max = max(config.dataset_counts)
    # The system-simulator convergence series ride the runner: one run at
    # the largest count, prefix estimates for the smaller ones (the
    # dataset counts are validated as genuine integers up front).
    cst_series = dict(throughput_vs_datasets(
        ReplicationSpec(mp, "overlap", n_datasets=n_max, law="deterministic"),
        config.dataset_counts,
        seed=config.seed,
    ))
    exp_series = dict(throughput_vs_datasets(
        ReplicationSpec(mp, "overlap", n_datasets=n_max, law="exponential"),
        config.dataset_counts,
        seed=config.seed,
    ))
    tpn = build_overlap_tpn(mp)
    tpn_cst = simulate_tpn(
        tpn, n_datasets=n_max, law="deterministic", seed=config.seed
    )
    tpn_exp = simulate_tpn(
        tpn, n_datasets=n_max, law="exponential", seed=config.seed
    )
    for k in config.dataset_counts:
        result.add(
            n_datasets=k,
            cst_theory=cst_theory,
            cst_system=cst_series[k],
            exp_system=exp_series[k],
            cst_tpn=tpn_cst.throughput_after(k),
            exp_tpn=tpn_exp.throughput_after(k),
            exp_theory=exp_theory,
        )
    result.notes.append(
        "paper: all series converge to the theoretical value; the "
        "exponential/constant difference is small; <1% error at 50k tasks"
    )
    return result
