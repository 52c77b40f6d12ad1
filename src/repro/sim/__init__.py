"""Simulation substrate (paper Section 7's tooling).

Two independent simulators cross-validate the analytical results:

* :mod:`repro.sim.tpn_sim` — simulates the timed event graph itself
  through its (max,+) dater recursion (our stand-in for ERS' ``eg_sim``);
* :mod:`repro.sim.system_sim` — simulates the application/platform/mapping
  directly through the Section 2 recurrences, without any Petri net
  (our stand-in for the paper's SimGrid experiments, including the
  bandwidth-efficiency correction).

Both return the sorted completions of data sets ``0 .. n - 1``; on
constant times they agree bit for bit.
"""

from repro.sim.results import SimulationResult
from repro.sim.tpn_sim import simulate_tpn
from repro.sim.system_sim import (
    BatchSimulationResult,
    simulate_system,
    simulate_system_batch,
)
from repro.sim.runner import (
    ReplicationSpec,
    ReplicationSummary,
    replicate,
    replication_values,
    throughput_vs_datasets,
)
from repro.sim.stats import OnlineStats, normal_confidence_interval

__all__ = [
    "SimulationResult",
    "BatchSimulationResult",
    "simulate_tpn",
    "simulate_system",
    "simulate_system_batch",
    "replicate",
    "replication_values",
    "ReplicationSpec",
    "ReplicationSummary",
    "throughput_vs_datasets",
    "OnlineStats",
    "normal_confidence_interval",
]
