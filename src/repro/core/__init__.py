"""Throughput algorithms — the paper's primary contribution."""

from repro.core.deterministic import round_period, tpn_throughput_deterministic
from repro.core.pattern import (
    CommPattern,
    build_pattern_tpn,
    exponential_to_deterministic_ratio,
    pattern_enabling_count,
    pattern_state_count,
    pattern_throughput_deterministic,
    pattern_throughput_exponential,
    pattern_throughput_homogeneous,
)
from repro.core.components import (
    Component,
    ComponentDAG,
    overlap_component_dag,
    overlap_throughput,
)
from repro.core.exponential import (
    exponential_throughput,
    overlap_exponential_throughput,
    strict_exponential_throughput,
    tpn_exponential_throughput_scc,
)
from repro.core.bounds import ThroughputBounds, throughput_bounds
from repro.core.comparison import (
    coupled_daters,
    coupled_throughputs,
    coupled_times,
    verify_st_dominance,
)
from repro.core.critical import (
    CriticalResourceReport,
    analyze_critical_resource,
    deterministic_throughput,
)
from repro.core.schedule import PeriodicSchedule, periodic_schedule
from repro.core.system import StreamingSystem

__all__ = [
    "round_period",
    "tpn_throughput_deterministic",
    "CommPattern",
    "build_pattern_tpn",
    "exponential_to_deterministic_ratio",
    "pattern_enabling_count",
    "pattern_state_count",
    "pattern_throughput_deterministic",
    "pattern_throughput_exponential",
    "pattern_throughput_homogeneous",
    "Component",
    "ComponentDAG",
    "overlap_component_dag",
    "overlap_throughput",
    "exponential_throughput",
    "overlap_exponential_throughput",
    "strict_exponential_throughput",
    "tpn_exponential_throughput_scc",
    "ThroughputBounds",
    "throughput_bounds",
    "coupled_daters",
    "coupled_throughputs",
    "coupled_times",
    "verify_st_dominance",
    "CriticalResourceReport",
    "analyze_critical_resource",
    "deterministic_throughput",
    "PeriodicSchedule",
    "periodic_schedule",
    "StreamingSystem",
]
