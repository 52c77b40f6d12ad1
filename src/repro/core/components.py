"""Symbolic component DAG of the Overlap model (Theorems 3 and 4).

The Overlap timed event graph is feed-forward, so its strongly connected
components sit inside single columns and can be enumerated *without
unrolling the ``m = lcm(R_i)`` rows*:

* computation column ``i`` — one component per team member (the
  processor's round-robin cycle);
* communication column ``i`` — ``g_i = gcd(R_i, R_{i+1})`` components,
  one per residue ``r mod g_i``; component ``r`` stacks copies of the
  ``(R_i/g_i) × (R_{i+1}/g_i)`` pattern of :mod:`repro.core.pattern`.

Every rate is normalized to the **full-stream equivalent** ``z`` — ``m``
times the component's per-transition rate, i.e. the global data-set rate
the system would sustain if that component were the only constraint:

* processor ``p`` of stage ``i``: ``z = R_i · λ_p`` (exponential) or
  ``R_i / c_p`` (deterministic);
* communication component: ``z = g · (pattern inner throughput)``.

The throughput is the smallest ``z``. Data set ``n`` follows row
``n mod m``, so the slowest component paces every row (Section 4's
``ρ = m / P``), and the value never exceeds ``1 / Mct``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core import pattern as pat
from repro.exceptions import UnsupportedModelError
from repro.mapping.mapping import Mapping


@dataclass
class Component:
    """One strongly connected component of the Overlap net, symbolically."""

    kind: str  # "cpu" | "comm"
    stage: int
    slot: int  # team position (cpu) or residue class (comm)
    label: str
    inner_z: float  # full-stream-equivalent inner throughput


@dataclass
class ComponentDAG:
    """All components in column order, and the throughput they set.

    ``throughput`` is the smallest inner rate: Section 4's critical-cycle
    value ``m / P``, reached by the in-order stream that the round-robin
    distribution imposes.
    """

    components: list[Component]
    throughput: float
    mapping: Mapping

    def bottleneck(self) -> Component:
        """The component with the smallest inner full-stream rate."""
        return min(self.components, key=lambda c: c.inner_z)


def _comm_pattern(mapping: Mapping, stage: int, residue: int) -> pat.CommPattern:
    """Pattern of communication ``F_{stage+1}``, residue class ``residue``.

    Pattern row ``t`` corresponds to global rows ``j ≡ residue + t·g``
    (mod lcm), pairing sender slot ``(residue + t·g) mod R_i`` with
    receiver slot ``(residue + t·g) mod R_{i+1}``.
    """
    r_i = mapping.replication[stage]
    r_j = mapping.replication[stage + 1]
    g = math.gcd(r_i, r_j)
    u, v = r_i // g, r_j // g
    means = []
    for t in range(u * v):
        j = residue + t * g
        p = mapping.teams[stage][j % r_i]
        q = mapping.teams[stage + 1][j % r_j]
        means.append(mapping.comm_time(stage, p, q))
    return pat.CommPattern(u, v, tuple(means))


def _cpu_inner_z(mapping: Mapping, stage: int, proc: int, mode: str) -> float:
    """Full-stream inner rate of one processor's compute cycle.

    With exponential or constant times of mean ``c_p``, a saturated
    single-token cycle completes one firing per mean ``c_p`` either way,
    so the inner rate is ``R_i / c_p`` for both modes.
    """
    c = mapping.compute_time(stage, proc)
    r = mapping.replication[stage]
    if c == 0.0:
        return math.inf
    return r / c


def _comm_inner_z(
    mapping: Mapping, stage: int, residue: int, mode: str, *, max_states: int
) -> float:
    g = mapping.comm_component_count(stage)
    if mapping.application.file_size(stage) == 0.0:
        return math.inf
    pattern = _comm_pattern(mapping, stage, residue)
    if mode == "deterministic":
        total = pat.pattern_throughput_deterministic(pattern)
    elif mode == "exponential":
        total = pat.pattern_throughput_exponential(pattern, max_states=max_states)
    else:  # pragma: no cover - guarded by caller
        raise UnsupportedModelError(f"unknown mode {mode!r}")
    return g * total


def overlap_component_dag(
    mapping: Mapping, mode: str, *, max_states: int = 200_000
) -> ComponentDAG:
    """Enumerate the symbolic components and take the smallest rate.

    ``mode`` is ``"deterministic"`` or ``"exponential"``. Cost is
    polynomial except for heterogeneous communication patterns in
    exponential mode, which solve a CTMC of ``S(u, v)`` states
    (Theorem 3's complexity).
    """
    if mode not in ("deterministic", "exponential"):
        raise UnsupportedModelError(f"unknown mode {mode!r}")
    comps: list[Component] = []
    for i in range(mapping.n_stages):
        # Computation column i.
        for slot, p in enumerate(mapping.teams[i]):
            comps.append(
                Component(
                    kind="cpu",
                    stage=i,
                    slot=slot,
                    label=f"T{i + 1}@P{p}",
                    inner_z=_cpu_inner_z(mapping, i, p, mode),
                )
            )
        # Communication column i (between stages i and i+1).
        if i < mapping.n_stages - 1:
            for r in range(mapping.comm_component_count(i)):
                comps.append(
                    Component(
                        kind="comm",
                        stage=i,
                        slot=r,
                        label=f"F{i + 1}#%d" % r,
                        inner_z=_comm_inner_z(
                            mapping, i, r, mode, max_states=max_states
                        ),
                    )
                )
    return ComponentDAG(
        components=comps,
        throughput=min(c.inner_z for c in comps),
        mapping=mapping,
    )


def overlap_throughput(
    mapping: Mapping, mode: str, *, max_states: int = 200_000
) -> float:
    """Overlap-model throughput by symbolic decomposition.

    Deterministic mode realizes Section 4.1; exponential mode realizes
    Theorems 3/4 (polynomial when communications are homogeneous). Both
    return the smallest inner rate (see :class:`ComponentDAG`).
    """
    return overlap_component_dag(mapping, mode, max_states=max_states).throughput
