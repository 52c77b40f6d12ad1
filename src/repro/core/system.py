"""High-level façade tying the whole library together.

A :class:`StreamingSystem` is a mapping plus an execution model; it
exposes every computation of the paper as one method:

>>> sys = StreamingSystem(mapping, model="overlap")
>>> sys.deterministic_throughput()          # Section 4
>>> sys.exponential_throughput()            # Section 5
>>> sys.throughput_bounds()                 # Section 6, Theorem 7
>>> sys.solve("simulation")                 # any registered solver
>>> sys.simulate(law="gamma", law_params={"shape": 0.5},
...              n_datasets=10_000, seed=7) # Section 7

Every throughput computation routes through the solver registry of
:mod:`repro.evaluate`; the system keeps one
:class:`~repro.evaluate.cache.StructureCache`, so repeated calls (and
both halves of the Theorem 7 sandwich) share built nets, reachability
graphs and memoized scores.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.evaluate import StructureCache, evaluate, get_solver
from repro.mapping.mapping import Mapping
from repro.mapping.resources import max_cycle_time
from repro.petri.builder_overlap import build_overlap_tpn
from repro.petri.builder_strict import build_strict_tpn
from repro.petri.net import TimedEventGraph
from repro.sim.results import SimulationResult
from repro.sim.sampling import LawSpec
from repro.types import ExecutionModel
from repro.core.bounds import ThroughputBounds
from repro.core.critical import CriticalResourceReport, analyze_critical_resource


class StreamingSystem:
    """A mapped streaming application under one execution model."""

    def __init__(self, mapping: Mapping, model: ExecutionModel | str = "overlap") -> None:
        self.mapping = mapping
        self.model = ExecutionModel.coerce(model)
        #: Structure cache shared by every solver call on this system.
        self.cache = StructureCache()

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def application(self):
        return self.mapping.application

    @property
    def platform(self):
        return self.mapping.platform

    @cached_property
    def n_paths(self) -> int:
        """Number of round-robin paths (Proposition 1)."""
        return self.mapping.n_rows

    def build_tpn(self, **kwargs) -> TimedEventGraph:
        """The unrolled timed event graph of Section 3."""
        if self.model is ExecutionModel.OVERLAP:
            return build_overlap_tpn(self.mapping, **kwargs)
        return build_strict_tpn(self.mapping, **kwargs)

    # ------------------------------------------------------------------
    # Analytic throughputs (delegated to the solver registry)
    # ------------------------------------------------------------------
    def solve(self, solver: str = "deterministic", **options) -> float:
        """Score this system with any registered solver, by name."""
        return evaluate(
            self.mapping,
            solver=solver,
            model=self.model,
            cache=self.cache,
            **options,
        )

    def deterministic_throughput(self) -> float:
        """Static throughput (Section 4)."""
        return self.solve("deterministic")

    def exponential_throughput(self, **kwargs) -> float:
        """Exponential-times throughput (Section 5)."""
        return self.solve("exponential", **kwargs)

    def throughput_bounds(self, **kwargs) -> ThroughputBounds:
        """N.B.U.E. sandwich (Theorem 7): ``(exponential, deterministic)``."""
        return get_solver("bounds", **kwargs).bounds(
            self.mapping, self.model, cache=self.cache
        )

    def max_cycle_time(self, **kwargs) -> float:
        """Critical-resource bound ``Mct`` (Section 2.3)."""
        return max_cycle_time(self.mapping, self.model, **kwargs)

    def critical_resource_report(self, **kwargs) -> CriticalResourceReport:
        """Critical-resource analysis backing Table 1."""
        return analyze_critical_resource(self.mapping, self.model, **kwargs)

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def simulate(
        self,
        *,
        n_datasets: int,
        law: str = "exponential",
        law_params: dict | None = None,
        seed: int | None = None,
        rng: np.random.Generator | None = None,
        engine: str = "system",
        **kwargs,
    ) -> SimulationResult:
        """Simulate the system (Section 7).

        ``engine`` selects ``"system"`` (direct recurrences, SimGrid
        stand-in) or ``"tpn"`` (the event graph's dater recursion,
        ``eg_sim`` stand-in). Other keywords go to the chosen simulator:
        ``bandwidth_efficiency`` and ``correlation`` to the system one;
        the event-graph one takes none.
        """
        spec = LawSpec.of(law, **(law_params or {}))
        if engine == "system":
            from repro.sim.system_sim import simulate_system

            return simulate_system(
                self.mapping,
                self.model,
                n_datasets=n_datasets,
                law=spec,
                seed=seed,
                rng=rng,
                **kwargs,
            )
        if engine == "tpn":
            from repro.sim.tpn_sim import simulate_tpn

            return simulate_tpn(
                self.build_tpn(),
                n_datasets=n_datasets,
                law=spec,
                seed=seed,
                rng=rng,
                **kwargs,
            )
        raise ValueError(f"unknown engine {engine!r}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StreamingSystem({self.mapping!r}, model={self.model.value})"
