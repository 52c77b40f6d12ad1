"""Figure 17 — non-N.B.U.E. laws can escape the Theorem 7 sandwich.

Same sweep as Fig. 16 but with laws outside the N.B.U.E. class: gamma
with shape < 1 (DFR) and hyperexponential laws fall *below* the
exponential lower bound; gamma with shape > 1 and uniform laws stay
inside (they are in fact N.B.U.E. — the paper's own Fig. 17 shows the
"Gamma 2/5/8" and "Uniform" curves between the bounds, consistent with
our classification; :mod:`repro.distributions.uniform` gives the
hazard-rate argument).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from repro.core import pattern_throughput_homogeneous
from repro.evaluate import evaluate
from repro.experiments.common import ExperimentResult
from repro.mapping.examples import single_communication
from repro.sim.sampling import LawSpec
from repro.sim.system_sim import simulate_system

#: The Fig. 17 sweep: gamma shapes from the paper plus genuinely
#: non-N.B.U.E. laws (gamma < 1, hyperexponential, lognormal).
FIG17_LAWS: list[LawSpec] = [
    LawSpec.of("gamma", shape=0.25),
    LawSpec.of("gamma", shape=0.5),
    LawSpec.of("gamma", shape=1.0),
    LawSpec.of("gamma", shape=2.0),
    LawSpec.of("gamma", shape=5.0),
    LawSpec.of("gamma", shape=8.0),
    LawSpec.of("uniform", rel_half_width=1.0),
    LawSpec.of("uniform", rel_half_width=0.5),
    LawSpec.of("hyperexponential", cv2=6.0),
    LawSpec.of("lognormal", sigma=1.2),
]


@dataclass
class Fig17Config:
    senders: list[int] = field(default_factory=lambda: list(range(2, 15)))
    v: int = 5
    n_datasets: int = 10_000
    seed: int = 17
    laws: list[LawSpec] = field(default_factory=lambda: list(FIG17_LAWS))


def run(config: Fig17Config | None = None) -> ExperimentResult:
    config = config or Fig17Config()
    v = config.v
    labels = [spec.label for spec in config.laws]
    result = ExperimentResult(
        name="fig17",
        description=f"non-N.B.U.E. laws vs the Theorem 7 bounds (v={v})",
        columns=["u", "lower_exp", "upper_cst", *labels],
    )
    escapes: dict[str, int] = {label: 0 for label in labels}
    for u in config.senders:
        mp = single_communication(u, v, comm_time=1.0)
        cst = evaluate(mp, solver="deterministic")
        g = gcd(u, v)
        lower = g * pattern_throughput_homogeneous(u // g, v // g, 1.0) / cst
        row: dict[str, object] = {"u": u, "lower_exp": lower, "upper_cst": 1.0}
        for spec in config.laws:
            rho = simulate_system(
                mp, "overlap", n_datasets=config.n_datasets,
                law=spec, seed=config.seed,
            ).steady_state_throughput() / cst
            row[spec.label] = rho
            if rho < lower * 0.97 or rho > 1.03:
                escapes[spec.label] += 1
        result.add(**row)
    for label, count in escapes.items():
        if count:
            result.notes.append(
                f"{label}: escaped the N.B.U.E. sandwich on {count} sweep points"
            )
    result.notes.append(
        "paper: non-N.B.U.E. laws can be larger or smaller than both the "
        "constant and exponential cases"
    )
    return result
