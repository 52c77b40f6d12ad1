"""Critical-resource analysis (paper Sections 2.3, 4 and Table 1).

Without replication the throughput is dictated by the critical hardware
resource: ``ρ = 1 / Mct`` with ``Mct`` the maximum resource cycle-time.
With replication the bound can be strict — the paper's motivating
surprise. This module classifies mappings accordingly, powering the
Table 1 reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mapping.mapping import Mapping
from repro.mapping.resources import critical_resource, max_cycle_time
from repro.types import ExecutionModel
from repro.core.components import overlap_throughput
from repro.core.deterministic import tpn_throughput_deterministic
from repro.petri.builder_strict import build_strict_tpn

#: ``critical_resource`` and ``max_cycle_time`` come from
#: :mod:`repro.mapping.resources`; both stay reachable here because the
#: perfbench traced run wraps them under these names.
__all__ = [
    "CriticalResourceReport",
    "analyze_critical_resource",
    "critical_resource",
    "deterministic_throughput",
    "max_cycle_time",
]


@dataclass(frozen=True, slots=True)
class CriticalResourceReport:
    """Comparison of the critical-resource bound with the actual throughput."""

    model: ExecutionModel
    mct: float
    bound_throughput: float  # 1 / Mct
    actual_throughput: float
    critical_proc: int
    critical_stage: int

    @property
    def relative_gap(self) -> float:
        """``(1/Mct - ρ) / (1/Mct)`` — 0 when a critical resource exists."""
        if self.bound_throughput == 0.0:
            return 0.0
        return (self.bound_throughput - self.actual_throughput) / self.bound_throughput

    def has_critical_resource(self, *, tolerance: float = 1e-6) -> bool:
        """Whether the period equals the max cycle-time (within tolerance)."""
        return self.relative_gap <= tolerance


def deterministic_throughput(
    mapping: Mapping,
    model: ExecutionModel | str,
    *,
    semantics: str = "unbounded",
) -> float:
    """Deterministic throughput under either model (convenience wrapper).

    For Overlap, ``semantics`` chooses between the unbounded-buffer
    composition (default, Theorem 3/4 style) and the ``"bottleneck"``
    critical-cycle value of Section 4 (see
    :class:`repro.core.components.ComponentDAG`). The Strict net is
    strongly connected in practice, where both semantics coincide with
    ``m / P``.
    """
    model = ExecutionModel.coerce(model)
    if model is ExecutionModel.OVERLAP:
        return overlap_throughput(mapping, "deterministic", semantics=semantics)
    return tpn_throughput_deterministic(build_strict_tpn(mapping))


def analyze_critical_resource(
    mapping: Mapping,
    model: ExecutionModel | str,
    *,
    use_slowest_teammate: bool = False,
) -> CriticalResourceReport:
    """Compute ``Mct``, the actual deterministic throughput, and the gap.

    A *case without critical resource* (Table 1's rare events) is a report
    whose ``relative_gap`` is strictly positive: the achieved period is
    longer than every resource's cycle-time. Following the paper's tooling
    (ERS ``scscyc`` computes the critical cycle of the whole net), the
    actual throughput uses the bottleneck semantics ``ρ = m / P``.
    """
    model = ExecutionModel.coerce(model)
    crit = critical_resource(
        mapping, model, use_slowest_teammate=use_slowest_teammate
    )
    mct = crit.exec_time(model)
    rho = deterministic_throughput(mapping, model, semantics="bottleneck")
    return CriticalResourceReport(
        model=model,
        mct=mct,
        bound_throughput=1.0 / mct if mct > 0 else float("inf"),
        actual_throughput=rho,
        critical_proc=crit.proc,
        critical_stage=crit.stage,
    )
