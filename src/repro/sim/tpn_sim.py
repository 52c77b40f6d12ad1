"""Simulation of a timed event graph (``eg_sim`` stand-in).

Semantics: a transition *starts firing* as soon as every input place holds
a token and its previous firing has ended; tokens are consumed at the
start and produced at the end of the firing, whose duration is drawn from
the transition's law (one law per hardware resource, independent draws
per firing — the I.I.D. hypothesis). Event graphs are conflict-free, so
this single-server semantics is unambiguous, and for exponential laws it
coincides with the CTMC race semantics of Section 5.

The firing epochs are those of the (max,+) dater recursion the paper's
comparison proofs evaluate (Section 6, Theorem 5), computed by
:func:`~repro.maxplus.dater.dater_evolution` from pre-sampled durations:
the ``k``-th firing of a transition ends its duration after the latest
firing it waits for. There is no event calendar, so the feed-forward
Overlap net, whose flow places grow without bound behind a fast branch,
needs no cap on how far that branch runs ahead.
"""

from __future__ import annotations

import time as _time

import numpy as np

from repro.exceptions import StructuralError
from repro.maxplus.dater import dater_evolution, sample_times
from repro.petri.net import TimedEventGraph
from repro.sim.results import SimulationResult
from repro.sim.sampling import as_factory


def simulate_tpn(
    tpn: TimedEventGraph,
    *,
    n_datasets: int,
    law="exponential",
    rng: np.random.Generator | None = None,
    seed: int | None = None,
) -> SimulationResult:
    """Complete data sets ``0 .. n_datasets - 1`` through the net.

    The last column's transitions, taken in row order, complete the data
    sets round-robin: with ``m`` of them, data set ``j + i·m`` is firing
    ``i`` of row ``j``'s transition. Rows that a
    :func:`~repro.petri.analysis.subnet` leaves empty (``grid`` holds -1)
    do not count. Every transition fires ``ceil(n_datasets / m)`` times;
    the result holds the sorted completions, the same set in the same
    order as :func:`~repro.sim.system_sim.simulate_system` returns.

    Parameters
    ----------
    law:
        A family name, :class:`~repro.sim.sampling.LawSpec` or
        ``mean -> Distribution`` callable, instantiated per transition with
        its mean firing time. Zero-mean transitions fire instantaneously.
    rng / seed:
        Pass a generator (preferred for replication control) or a seed.
    """
    if n_datasets < 1:
        raise ValueError("n_datasets must be >= 1")
    for t in range(tpn.n_transitions):
        if not tpn.in_places[t]:
            raise StructuralError(
                f"transition {t} has no input place; event-graph simulation "
                "requires source transitions to be closed by resource cycles"
            )
    last = [int(t) for t in tpn.grid[-1] if t >= 0]
    if not last:
        raise StructuralError("the net has no last-column transition")
    if rng is None:
        rng = np.random.default_rng(seed)

    t0 = _time.perf_counter()
    n_firings = -(-n_datasets // len(last))
    times = sample_times(tpn, n_firings, as_factory(law), rng)
    dater = dater_evolution(tpn, n_firings, times)
    # Row i of the transpose holds firing i of every row: data sets
    # i·m .. i·m + m - 1, so the flat order is the data-set order.
    completions = dater[last].T.ravel()[:n_datasets]
    return SimulationResult(
        completion_times=np.sort(completions),
        n_events=tpn.n_transitions * n_firings,
        wall_time=_time.perf_counter() - t0,
    )
