"""Deterministic (static) throughput computation (paper Section 4).

Two views of the same value are implemented:

* :func:`tpn_throughput_deterministic` — works on any unrolled timed event
  graph (both models): the paper's ``ρ = m / P`` with ``P`` the net's
  critical-cycle ratio (computed as ERS' ``scscyc`` does), one kernel
  call on the whole net;
* :func:`repro.core.components.overlap_throughput` — the symbolic Overlap
  path that never unrolls the net (Section 4.1's column argument).

:func:`round_period` exposes the raw critical-cycle ratio ``P``.
"""

from __future__ import annotations

import math

from repro.exceptions import StructuralError
from repro.maxplus.cycle import max_cycle_ratio
from repro.petri.net import TimedEventGraph


def round_period(tpn: TimedEventGraph) -> float:
    """Critical-cycle ratio ``P = max_C weight(C)/tokens(C)`` of the net.

    Every transition of the slowest strongly connected component fires
    once per ``P`` in the periodic regime. Data set ``n`` follows row
    ``n mod m``, so that component paces every row, strongly connected
    net or not, and the throughput is ``m / P``.
    """
    res = max_cycle_ratio(tpn.to_token_graph())
    if res is None:
        raise StructuralError("acyclic net has no period")
    return res.ratio


def tpn_throughput_deterministic(tpn: TimedEventGraph) -> float:
    """Deterministic throughput ``m / P`` of an unrolled net (either model).

    Infinite when every cycle takes no time.
    """
    period = round_period(tpn)
    return math.inf if period == 0.0 else tpn.n_rows / period
