"""From a bounded timed event graph to its marking CTMC (Theorem 2).

Under exponential firing times the marking is a sufficient state: every
enabled transition fires after an exponential race, so the reachable
marking graph *is* the CTMC (rate of the move = rate of the fired
transition). The throughput is the stationary expected firing rate of the
counted transitions — by default the last column, whose firings complete
data sets.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import StructuralError
from repro.markov.ctmc import CTMC
from repro.petri.net import TimedEventGraph
from repro.petri.reachability import PLACE_BOUND, ReachabilityResult, explore
from repro.telemetry.profile import profile_span


def exponential_rates(tpn: TimedEventGraph) -> np.ndarray:
    """Rates ``λ_t = 1 / mean_time`` of the exponential firing laws."""
    means = tpn.mean_times()
    if (means <= 0).any():
        bad = [t.label or str(t.index) for t in tpn.transitions if t.mean_time <= 0]
        raise StructuralError(
            "exponential analysis requires strictly positive mean times; "
            f"offending transitions: {bad[:5]}"
        )
    return 1.0 / means


def ctmc_from_tpn(
    tpn: TimedEventGraph,
    rates: np.ndarray | None = None,
    *,
    max_states: int = 200_000,
    place_bound: int = PLACE_BOUND,
    reach: ReachabilityResult | None = None,
) -> tuple[CTMC, ReachabilityResult]:
    """Build the marking CTMC of a bounded net.

    Returns the chain and the reachability result (kept so callers can
    attribute stationary mass back to enabled transitions). ``reach``
    optionally injects a previously computed exploration of a net with
    the same topology (the marking graph is independent of firing times,
    so the solver cache shares it across same-structure candidates).
    """
    rates = exponential_rates(tpn) if rates is None else np.asarray(rates, dtype=float)
    if rates.shape != (tpn.n_transitions,):
        raise StructuralError("rates vector must have one entry per transition")
    if reach is None:
        with profile_span("reachability"):
            reach = explore(tpn, max_states=max_states, place_bound=place_bound)
    with profile_span("markov_build"):
        src, trans, dst = reach.flat_arcs()
        moving = src != dst  # self-loops: invisible to the stationary law
        chain = CTMC(
            reach.n_states, src[moving], dst[moving], rates[trans[moving]]
        )
    return chain, reach


def tpn_throughput_exponential(
    tpn: TimedEventGraph,
    *,
    counted: Sequence[int] | None = None,
    rates: np.ndarray | None = None,
    max_states: int = 200_000,
    place_bound: int = PLACE_BOUND,
    reach: ReachabilityResult | None = None,
) -> float:
    """Exact exponential throughput of a bounded net (Theorem 2).

    ``counted`` selects the transitions whose firings are counted
    (default: the last column — one firing per completed data set). Under
    the stationary law ``π`` the long-run counted firing rate is
    ``Σ_s π(s) Σ{λ_t : t ∈ counted enabled in s}``, including moves that
    do not change the marking (self-loops fire too). ``reach`` injects a
    cached same-topology exploration (see :func:`ctmc_from_tpn`).
    """
    rates = exponential_rates(tpn) if rates is None else np.asarray(rates, dtype=float)
    chain, reach = ctmc_from_tpn(
        tpn, rates, max_states=max_states, place_bound=place_bound, reach=reach
    )
    with profile_span("ctmc_solve"):
        pi = chain.stationary_distribution()
    counted_ix = tpn.last_column_transitions() if counted is None else list(counted)
    if any(not 0 <= t < tpn.n_transitions for t in counted_ix):
        raise StructuralError(
            f"counted transition indices must be in 0..{tpn.n_transitions - 1}"
        )
    counted_mask = np.zeros(tpn.n_transitions, dtype=bool)
    counted_mask[counted_ix] = True
    src, trans, _ = reach.flat_arcs()
    keep = counted_mask[trans]
    return float(np.sum(pi[src[keep]] * rates[trans[keep]]))
