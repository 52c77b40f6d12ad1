"""Throughput bounds for N.B.U.E. times (paper Section 6, Theorem 7).

For any system whose operation times are I.I.D. N.B.U.E. variables, the
throughput is sandwiched between two fully computable systems built from
the *same means*::

    ρ(exponential means)   <=   ρ(N.B.U.E.)   <=   ρ(deterministic means)

The lower bound replaces every law by an exponential with the same mean
(the ≤icx-largest N.B.U.E. law); the upper bound replaces it by the
constant equal to the mean (Jensen / ≤icx-smallest). Both bounds are
computed by the exact evaluators of Sections 4 and 5, which is why the
paper calls the constant and exponential cases "extreme cases".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.mapping.mapping import Mapping
from repro.types import ExecutionModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.evaluate.cache import StructureCache


@dataclass(frozen=True, slots=True)
class ThroughputBounds:
    """The Theorem 7 sandwich. ``lower`` = exponential, ``upper`` = constant."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        # Guard against numerical inversions of the exact evaluators.
        # The two sides come from different solvers (the critical-cycle
        # kernel or a deterministic pattern on one side, a CTMC on the
        # other), yet they can tie: an Overlap bottleneck processor has
        # the inner rate R_i / c_p in both modes. Over the Table 1
        # census (seed 2010), 2273 of 2576 Overlap instances tie within
        # 1e-12, and 142 of them invert by round-off, at most 4.4e-16;
        # on the 2000 Strict nets of the small classes the exponential
        # side stays at least 2.7e-5 below. 1e-9 clears the round-off by
        # six orders of magnitude.
        if self.lower > self.upper * (1 + 1e-9):
            raise AssertionError(
                f"bound inversion: exponential {self.lower} > deterministic {self.upper}"
            )

    def contains(self, value: float, *, rel_slack: float = 0.0) -> bool:
        """Whether a measured throughput falls inside the sandwich."""
        slack = rel_slack * self.upper
        return self.lower - slack <= value <= self.upper + slack

    @property
    def width(self) -> float:
        return self.upper - self.lower


def throughput_bounds(
    mapping: Mapping,
    model: ExecutionModel | str,
    *,
    max_states: int = 200_000,
    cache: "StructureCache | None" = None,
) -> ThroughputBounds:
    """Compute the Theorem 7 bounds for a mapping under either model.

    Both bounds are exact values of comparison systems, so any N.B.U.E.
    simulation of the same mapping must fall in between (up to sampling
    noise) — precisely what the Fig. 16 reproduction checks, and what the
    Fig. 17 reproduction violates with non-N.B.U.E. laws. Both bounds are
    ``m`` times the per-transition rate of the slowest strongly connected
    component of their system, so the sandwich is coherent.

    Delegates to the ``bounds`` solver of :mod:`repro.evaluate`: both
    halves share one structure cache, so a connected Strict net is built
    (and its marking graph explored) once per mapping. Pass ``cache`` to
    extend the sharing across calls.
    """
    from repro.evaluate import get_solver

    solver = get_solver("bounds", max_states=max_states)
    return solver.bounds(mapping, model, cache=cache)
