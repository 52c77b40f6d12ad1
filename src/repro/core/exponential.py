"""Exponential-times throughput computation (paper Section 5).

Three evaluators, in increasing generality / cost:

* :func:`overlap_exponential_throughput` — Theorem 3/4 symbolic column
  decomposition (the Overlap path; polynomial for homogeneous
  communications, ``S(u, v)``-sized CTMCs otherwise);
* :func:`tpn_exponential_throughput_scc` — per-SCC saturated CTMCs on an
  unrolled net, composed by the bottleneck rule. Exact for feed-forward
  (Overlap) nets of modest ``m``; the decomposition's cross-check (in
  particular of the "c copies of one pattern" reduction), called as
  ``tpn_exponential_throughput_scc(build_overlap_tpn(mapping))``;
* :func:`strict_exponential_throughput` — Theorem 2's full marking chain
  for the Strict model (the net is bounded thanks to its backward edges);
  exponential cost, intended for small instances.

:func:`exponential_throughput` picks among them from its input alone.
"""

from __future__ import annotations

import math

from repro.mapping.mapping import Mapping
from repro.markov.builder import exponential_rates, tpn_throughput_exponential
from repro.petri.analysis import condensation_edges, subnet
from repro.petri.builder_overlap import build_overlap_tpn
from repro.petri.builder_strict import build_strict_tpn
from repro.petri.net import TimedEventGraph
from repro.types import ExecutionModel
from repro.core.components import overlap_throughput


def overlap_exponential_throughput(
    mapping: Mapping,
    *,
    semantics: str = "unbounded",
    max_states: int = 200_000,
) -> float:
    """Overlap throughput with exponential times (Theorems 3/4)."""
    return overlap_throughput(
        mapping, "exponential", semantics=semantics, max_states=max_states
    )


def tpn_exponential_throughput_scc(
    tpn: TimedEventGraph, *, max_states: int = 200_000
) -> float:
    """Exponential throughput of an unrolled net by SCC composition.

    Each strongly connected component is analyzed in isolation (inputs
    saturated: boundary places dropped by :func:`repro.petri.analysis.subnet`)
    through its marking CTMC; the per-transition inner rates then compose
    through the condensation DAG by the bottleneck rule — exact for
    feed-forward nets under the unbounded-buffer Overlap semantics.
    """
    comps, edges = condensation_edges(tpn)
    inner: list[float] = []
    for members in comps:
        sub, _ = subnet(tpn, members)
        if all(t.mean_time == 0.0 for t in sub.transitions):
            inner.append(math.inf)
            continue
        counted = list(range(sub.n_transitions))
        total = tpn_throughput_exponential(
            sub, counted=counted, max_states=max_states
        )
        # All transitions of a strongly connected event graph share the
        # same long-run rate; the CTMC gives the component total.
        inner.append(total / sub.n_transitions)
    effective = list(inner)
    preds: list[list[int]] = [[] for _ in comps]
    for u, v in edges:
        preds[v].append(u)
    for v in range(len(comps)):
        for u in preds[v]:
            effective[v] = min(effective[v], effective[u])
    comp_of = {t: cid for cid, members in enumerate(comps) for t in members}
    return float(
        sum(effective[comp_of[t]] for t in tpn.last_column_transitions())
    )


def strict_exponential_throughput(
    mapping: Mapping, *, max_states: int = 200_000
) -> float:
    """Strict-model exponential throughput — Theorem 2's general method.

    Builds the (bounded) Strict net, enumerates its reachable markings and
    solves the stationary law. State count grows exponentially with the
    number of rows; guarded by ``max_states``.
    """
    tpn = build_strict_tpn(mapping)
    return tpn_throughput_exponential(tpn, max_states=max_states)


def exponential_throughput(
    mapping: Mapping,
    model: ExecutionModel | str,
    *,
    semantics: str = "unbounded",
    buffer_capacity: int | None = None,
    max_states: int = 200_000,
) -> float:
    """Front door: exponential throughput under either execution model.

    * Strict — Theorem 2's full marking chain (``buffer_capacity`` and
      ``semantics`` do not apply);
    * Overlap — the Theorem 3/4 decomposition, or, when
      ``buffer_capacity`` is set, the marking chain of the capacitated
      net. The paper's Overlap net is feed-forward, hence unbounded, so
      it has a finite marking chain only with capacity places.
    """
    model = ExecutionModel.coerce(model)
    if model is ExecutionModel.STRICT:
        return strict_exponential_throughput(mapping, max_states=max_states)
    if buffer_capacity is None:
        return overlap_exponential_throughput(
            mapping, semantics=semantics, max_states=max_states
        )
    tpn = build_overlap_tpn(mapping, buffer_capacity=buffer_capacity)
    return tpn_throughput_exponential(tpn, max_states=max_states)


__all__ = [
    "exponential_rates",
    "exponential_throughput",
    "overlap_exponential_throughput",
    "strict_exponential_throughput",
    "tpn_exponential_throughput_scc",
]
