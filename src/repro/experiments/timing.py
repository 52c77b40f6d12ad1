"""Section 7.7 — running time of the analysis tools and simulators.

The paper reports that generating tasks and running every tool on 100
data sets takes under a second, and that 100,000 events still complete in
minutes. We time, on the Fig. 10 system: deterministic theory, exponential
theory, the direct system simulator, the event-graph simulator, and a
replication study at several workload sizes, both as a per-stream loop of
single simulations and through :func:`~repro.sim.runner.replicate`, which
runs a :class:`~repro.sim.runner.ReplicationSpec` in one vectorized pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.evaluate import evaluate
from repro.experiments.common import ExperimentResult
from repro.experiments.fig10 import paper_system
from repro.petri import build_overlap_tpn
from repro.sim.runner import ReplicationSpec, replicate
from repro.sim.system_sim import simulate_system
from repro.sim.tpn_sim import simulate_tpn


@dataclass
class TimingConfig:
    dataset_counts: list[int] = field(
        default_factory=lambda: [100, 1000, 10_000, 100_000]
    )
    seed: int = 77
    #: Replication-study sizing: ``n_replications`` per timed study, with
    #: per-path dataset caps (the per-stream loop pays the full interpreter
    #: cost per replication, so it gets a tighter cap).
    n_replications: int = 50
    rep_loop_cap: int = 1_000
    rep_vec_cap: int = 10_000


def _clock(fn) -> tuple[float, object]:
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def run(config: TimingConfig | None = None) -> ExperimentResult:
    config = config or TimingConfig()
    mp = paper_system()
    result = ExperimentResult(
        name="timing",
        description="running time (seconds) of theory and simulators",
        columns=[
            "n_datasets",
            "theory_cst_s",
            "theory_exp_s",
            "system_sim_s",
            "tpn_sim_s",
            "rep_loop_s",
            "rep_vec_s",
        ],
    )
    t_cst, _ = _clock(lambda: evaluate(mp, solver="deterministic"))
    t_exp, _ = _clock(lambda: evaluate(mp, solver="exponential"))
    tpn = build_overlap_tpn(mp)
    for k in config.dataset_counts:
        t_sys, _ = _clock(
            lambda k=k: simulate_system(
                mp, "overlap", n_datasets=k, law="exponential", seed=config.seed
            )
        )
        t_tpn, _ = _clock(
            lambda k=k: simulate_tpn(
                tpn, n_datasets=k, law="exponential", seed=config.seed
            )
        )
        spec = ReplicationSpec(mp, "overlap", n_datasets=k, law="exponential")
        t_rep_loop = float("nan")
        if k <= config.rep_loop_cap:
            streams = np.random.default_rng(config.seed).spawn(
                config.n_replications
            )
            t_rep_loop, _ = _clock(lambda: [spec(rng) for rng in streams])
        t_rep_vec = float("nan")
        if k <= config.rep_vec_cap:
            t_rep_vec, _ = _clock(
                lambda: replicate(
                    spec,
                    n_replications=config.n_replications,
                    seed=config.seed,
                )
            )
        result.add(
            n_datasets=k,
            theory_cst_s=t_cst,
            theory_exp_s=t_exp,
            system_sim_s=t_sys,
            tpn_sim_s=t_tpn,
            rep_loop_s=t_rep_loop,
            rep_vec_s=t_rep_vec,
        )
    result.notes.append(
        "paper: <1s for 100 data sets with all tools; ~3 minutes for "
        "100,000 events (C tools); our Python tooling matches the shape"
    )
    result.notes.append(
        f"rep_*_s: {config.n_replications}-replication study as a per-stream "
        "loop of simulate_system runs (loop) and through replicate (vec), "
        "which batches the replication axis through numpy; the "
        "per-replication values are bit-identical"
    )
    return result
