"""Coupled stochastic comparisons (paper Section 6, Theorems 5, 6, 8).

The comparison theorems rest on two ingredients the library makes
executable:

1. **Monotonicity** — the dater recursion of a timed event graph is a
   composition of maxima and sums, hence increasing (and convex) in every
   operation time (:func:`repro.maxplus.dater.dater_evolution`, tested
   pointwise).
2. **Coupling** — evaluating several laws on *shared* uniform draws
   through their quantile functions produces the comonotone coupling: if
   ``law_a ≤st law_b`` then every coupled sample of ``a`` is below the
   matching sample of ``b``.

Together they give sample-path versions of the theorems: with
``≤st``-ordered time laws, *every* firing of the faster system happens no
later than the matching firing of the slower one (Theorem 5), so the
throughputs are ordered; with only ``≤icx`` order the ordering holds in
expectation (Theorem 6), which :func:`coupled_throughputs` exposes with
variance-reduced common-random-number estimates.
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC

import numpy as np

from repro.distributions.base import Distribution
from repro.maxplus.dater import dater_evolution
from repro.petri.net import TimedEventGraph
from repro.sim.sampling import as_factory
from repro.sim.tpn_sim import dater_result


def coupled_times(
    tpn: TimedEventGraph,
    law,
    uniforms: np.ndarray,
) -> np.ndarray:
    """Duration matrix obtained by quantile-transforming shared uniforms.

    ``uniforms`` has shape ``(n_transitions, n_firings)``; entry ``[t, k]``
    is transformed through the quantile function of the law instantiated
    with transition ``t``'s mean. Zero-mean transitions stay instantaneous.
    """
    factory = as_factory(law)
    out = np.zeros_like(uniforms)
    for t in tpn.transitions:
        if t.mean_time == 0.0:
            continue
        dist: Distribution = factory(t.mean_time)
        out[t.index] = np.asarray(dist.quantile(uniforms[t.index]), dtype=float)
    return out


def coupled_daters(
    tpn: TimedEventGraph,
    laws: MappingABC[str, object],
    *,
    n_firings: int,
    seed: int = 0,
) -> dict[str, np.ndarray]:
    """Dater matrices of several laws under the comonotone coupling.

    Returns ``{label: D}`` with ``D[t, k]`` the end of the ``k``-th firing
    of transition ``t``; all labels share the same underlying uniforms.
    """
    rng = np.random.default_rng(seed)
    u = rng.random((tpn.n_transitions, n_firings))
    # Clip away exact endpoints: quantile(1) may be +inf for unbounded laws.
    np.clip(u, 1e-12, 1.0 - 1e-12, out=u)
    return {
        label: dater_evolution(tpn, n_firings, coupled_times(tpn, law, u))
        for label, law in laws.items()
    }


def coupled_throughputs(
    tpn: TimedEventGraph,
    laws: MappingABC[str, object],
    *,
    n_firings: int,
    seed: int = 0,
    warmup_fraction: float = 0.2,
) -> dict[str, float]:
    """Common-random-number throughput estimates for several laws.

    The shared coupling removes most of the between-law sampling noise, so
    the Theorem 6/7 orderings emerge at modest run lengths. Each estimate
    is the steady-state throughput of every data set the ``n_firings``
    rounds complete, read as :func:`~repro.sim.tpn_sim.simulate_tpn` reads
    its own daters.
    """
    daters = coupled_daters(tpn, laws, n_firings=n_firings, seed=seed)
    return {
        label: dater_result(tpn, d).steady_state_throughput(
            warmup_fraction=warmup_fraction
        )
        for label, d in daters.items()
    }


def verify_st_dominance(
    tpn: TimedEventGraph,
    law_fast,
    law_slow,
    *,
    n_firings: int = 200,
    seed: int = 0,
) -> bool:
    """Sample-path check of Theorem 5.

    With ``law_fast ≤st law_slow`` (per resource mean), every coupled
    firing of the fast system must precede the matching firing of the slow
    one. Returns ``True`` when the pointwise ordering holds on the whole
    dater matrix — the exact conclusion of the (max,+) monotonicity
    argument in the paper's proof.
    """
    daters = coupled_daters(
        tpn, {"fast": law_fast, "slow": law_slow},
        n_firings=n_firings, seed=seed,
    )
    return bool((daters["fast"] <= daters["slow"] + 1e-9).all())
