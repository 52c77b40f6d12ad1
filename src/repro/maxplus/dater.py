"""Exact dater recursions of a timed event graph.

The *dater* ``D_t(k)`` is the completion time of the ``k``-th firing of
transition ``t``. Event graphs satisfy the (max,+)-linear recursion used
throughout the paper's proofs (Theorem 5)::

    D_t(k) = τ_t(k)  +  max over input places (s → t, m tokens) of D_s(k - m)

with ``D_s(j) = -inf … 0`` boundary for ``j < 0`` (resources initially
idle, sources available at time 0). Evaluating the recursion directly
gives the exact firing epochs — deterministic or sampled — without any
event calendar. It is the engine of the event-graph simulator
(:func:`repro.sim.tpn_sim.simulate_tpn`) and the backbone of the
stochastic-comparison experiments: feeding two *coupled* time samples
through the same recursion realizes the monotonicity arguments of
Theorems 5/6 sample path by sample path.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.exceptions import StructuralError
from repro.petri.net import TimedEventGraph


def dater_evolution(
    tpn: TimedEventGraph,
    n_firings: int,
    times: np.ndarray | None = None,
) -> np.ndarray:
    """Completion time of the first ``n_firings`` firings of every transition.

    Parameters
    ----------
    times:
        Firing durations, either a vector (one constant per transition) or
        a matrix of shape ``(n_transitions, n_firings)`` (the ``k``-th
        firing of ``t`` lasts ``times[t, k]``) — pre-sampled randomness.
        Defaults to the net's mean times.

    Returns
    -------
    ``D`` of shape ``(n_transitions, n_firings)`` with ``D[t, k]`` the end
    of the ``k``-th firing (``+inf`` if the net deadlocks, which cannot
    happen for live nets).

    Notes
    -----
    Implements consume-at-start single-server semantics like the system
    simulator and the CTMC: the serialization between successive firings
    of the same transition is carried by its resource-cycle places, which
    the builders always provide.
    """
    if n_firings < 1:
        raise ValueError("n_firings must be >= 1")
    n_t = tpn.n_transitions
    if times is None:
        tau = np.tile(tpn.mean_times()[:, None], (1, n_firings))
    else:
        times = np.asarray(times, dtype=float)
        if times.ndim == 1:
            tau = np.tile(times[:, None], (1, n_firings))
        elif times.shape == (n_t, n_firings):
            tau = times
        else:
            raise StructuralError(
                f"times must be ({n_t},) or ({n_t}, {n_firings}), "
                f"got {times.shape}"
            )

    # Evaluate firing round k for every transition; within a round the
    # zero-token dependencies form a DAG (liveness), so iterate in a
    # topological order of the zero-token subgraph, computed once.
    graph = tpn.to_token_graph()
    topo = graph.zero_token_order()
    if topo is None:
        raise StructuralError("zero-token cycle: the net is not live")
    in_by_t: list[list[tuple[int, int]]] = [[] for _ in range(n_t)]
    for a in graph:
        in_by_t[a.dst].append((a.src, a.tokens))

    d = np.empty((n_t, n_firings))
    for k in range(n_firings):
        for t in topo:
            start = 0.0
            for s, m in in_by_t[t]:
                j = k - m
                if j >= 0:
                    prev = d[s, j]
                    if prev > start:
                        start = prev
            d[t, k] = start + tau[t, k]
    return d


def sample_times(
    tpn: TimedEventGraph,
    n_firings: int,
    law: Callable[[float], "object"],
    rng: np.random.Generator,
) -> np.ndarray:
    """Pre-sample a ``(n_transitions, n_firings)`` duration matrix.

    ``law`` maps a mean to a :class:`~repro.distributions.base.Distribution`;
    zero-mean transitions stay at zero (instantaneous).
    """
    n_t = tpn.n_transitions
    out = np.zeros((n_t, n_firings))
    for t in tpn.transitions:
        if t.mean_time == 0.0:
            continue
        out[t.index] = np.asarray(
            law(t.mean_time).sample(rng, n_firings), dtype=float
        )
    return out
