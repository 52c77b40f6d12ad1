"""Exponential-times throughput computation (paper Section 5).

Every evaluator reports what the deterministic ones do
(:mod:`repro.core.deterministic`): ``m`` times the per-transition rate
of the slowest strongly connected component. Data set ``n`` follows row
``n mod m``, so the slowest component paces every row. Three
evaluators, in increasing generality / cost:

* :func:`overlap_exponential_throughput` — Theorem 3/4 symbolic column
  decomposition (the Overlap path; polynomial for homogeneous
  communications, ``S(u, v)``-sized CTMCs otherwise);
* :func:`strict_exponential_throughput` — Theorem 2's marking chain for
  the Strict model (the net is bounded thanks to its backward edges),
  one chain per row class; exponential cost, intended for small
  instances;
* :func:`tpn_exponential_throughput_scc` — one saturated CTMC per
  strongly connected component of an unrolled net; the oracle of both
  paths above, called on ``build_overlap_tpn(mapping)`` or
  ``build_strict_tpn(mapping)``.

:func:`exponential_throughput` picks among them from its input alone.
Each path that solves a chain imports :mod:`repro.markov`, and with it
``scipy.sparse``, when it is called, so a process that solves no chain
never loads them.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.exceptions import UnsupportedModelError
from repro.mapping.mapping import Mapping
from repro.petri.analysis import strongly_connected_components, subnet
from repro.petri.builder_overlap import build_overlap_tpn
from repro.petri.net import TimedEventGraph
from repro.telemetry.profile import profile_span
from repro.types import ExecutionModel
from repro.core.components import overlap_throughput

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.evaluate.cache import StructureCache


def overlap_exponential_throughput(
    mapping: Mapping, *, max_states: int = 200_000
) -> float:
    """Overlap throughput with exponential times (Theorems 3/4)."""
    return overlap_throughput(mapping, "exponential", max_states=max_states)


def tpn_exponential_throughput_scc(
    tpn: TimedEventGraph, *, max_states: int = 200_000
) -> float:
    """Exponential throughput of an unrolled net, one CTMC per component.

    Each strongly connected component is analyzed in isolation (inputs
    saturated: boundary places dropped by
    :func:`repro.petri.analysis.subnet`) through its marking CTMC. The
    throughput is ``m`` times the per-transition rate of the slowest
    component.
    """
    from repro.markov.builder import tpn_throughput_exponential

    slowest = math.inf
    for members in strongly_connected_components(tpn):
        sub, _ = subnet(tpn, members)
        if all(t.mean_time == 0.0 for t in sub.transitions):
            continue
        counted = list(range(sub.n_transitions))
        total = tpn_throughput_exponential(
            sub, counted=counted, max_states=max_states
        )
        # All transitions of a strongly connected event graph share the
        # same long-run rate; the CTMC gives the component total.
        slowest = min(slowest, total / sub.n_transitions)
    return tpn.n_rows * slowest


def _chain_throughput(
    mapping: Mapping, max_states: int, cache: "StructureCache | None"
) -> float:
    """Theorem 2's marking chain of one connected Strict net."""
    # Looked up when called, not bound at import, so that a wrapper set
    # on these module attributes sees every build and exploration.
    from repro.evaluate.cache import strict_net
    from repro.markov.builder import tpn_throughput_exponential
    from repro.petri import reachability

    tpn = strict_net(mapping, cache)
    if cache is None:
        return tpn_throughput_exponential(tpn, max_states=max_states)

    def explore():
        with profile_span("reachability"):
            return reachability.explore(
                tpn, max_states=max_states, place_bound=reachability.PLACE_BOUND
            )

    reach = cache.reachability(
        mapping,
        ExecutionModel.STRICT,
        explore,
        max_states=max_states,
        place_bound=reachability.PLACE_BOUND,
    )
    return tpn_throughput_exponential(tpn, max_states=max_states, reach=reach)


def strict_exponential_throughput(
    mapping: Mapping,
    *,
    max_states: int = 200_000,
    cache: "StructureCache | None" = None,
) -> float:
    """Strict-model exponential throughput — Theorem 2, one chain per row class.

    At stage ``i``, rows ``j`` and ``j'`` share a processor iff
    ``j ≡ j' (mod R_i)``. The Strict net's connected components are
    therefore the row classes modulo ``g = gcd(R_1, …, R_N)``, and class
    ``r`` is the Strict net of the mapping with teams ``teams[i][r::g]``.
    Each class is solved as a mapping of its own: its reachable markings
    and their stationary law give its throughput ``ρ_r``. The slowest
    class paces every row, so the throughput is ``g · min_r ρ_r``. A
    connected net (``g = 1``) is one chain.

    The class chains hold ``Σ|S_r|`` states in total where the whole
    net's would hold ``Π|S_r|``; each is guarded by ``max_states``. With
    a ``cache``, classes sharing a timing fingerprint share one built
    net, and classes sharing a replication vector share one exploration,
    so only the CTMC solve runs per class.
    """
    g = math.gcd(*mapping.replication)
    parts = [mapping] if g == 1 else [
        Mapping(
            mapping.application,
            mapping.platform,
            [team[r::g] for team in mapping.teams],
        )
        for r in range(g)
    ]
    return g * min(_chain_throughput(part, max_states, cache) for part in parts)


def exponential_throughput(
    mapping: Mapping,
    model: ExecutionModel | str,
    *,
    buffer_capacity: int | None = None,
    max_states: int = 200_000,
    cache: "StructureCache | None" = None,
) -> float:
    """Front door: exponential throughput under either execution model.

    * Strict — Theorem 2's marking chain per row class
      (:func:`strict_exponential_throughput`). The serialization chains
      already bound the Strict net, so ``buffer_capacity`` does not
      apply, and setting it raises
      :class:`~repro.exceptions.UnsupportedModelError`;
    * Overlap — the Theorem 3/4 decomposition, or, when
      ``buffer_capacity`` is set, the marking chain of the capacitated
      net. The paper's Overlap net is feed-forward, hence unbounded, so
      it has a finite marking chain only with capacity places.

    ``cache`` (a :class:`~repro.evaluate.cache.StructureCache`) shares
    the Strict nets and explorations across calls; the ``exponential``
    solver passes its own. It changes no value.
    """
    model = ExecutionModel.coerce(model)
    if model is ExecutionModel.STRICT:
        if buffer_capacity is not None:
            raise UnsupportedModelError(
                "buffer_capacity does not apply to the Strict model: its "
                "serialization chains already bound the net"
            )
        return strict_exponential_throughput(
            mapping, max_states=max_states, cache=cache
        )
    if buffer_capacity is None:
        return overlap_exponential_throughput(mapping, max_states=max_states)
    from repro.markov.builder import tpn_throughput_exponential

    tpn = build_overlap_tpn(mapping, buffer_capacity=buffer_capacity)
    return tpn_throughput_exponential(tpn, max_states=max_states)


__all__ = [
    "exponential_throughput",
    "overlap_exponential_throughput",
    "strict_exponential_throughput",
    "tpn_exponential_throughput_scc",
]
