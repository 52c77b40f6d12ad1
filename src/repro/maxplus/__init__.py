"""(max,+) algebra: semiring, dater recursion, and critical-cycle computation.

Timed event graphs evolve linearly in the (max,+) semiring (paper
Section 4, after Baccelli et al. [2]); the throughput of a strongly
connected graph is the inverse of its maximum cycle ratio
``max_C Σ(firing times)/Σ(tokens)``.
"""

from repro.maxplus.semiring import NEG_INF, oplus, otimes, is_neg_inf
from repro.maxplus.graph import Arc, TokenGraph
from repro.maxplus.cycle import (
    CycleResult,
    max_cycle_ratio,
    max_cycle_ratio_brute_force,
)
from repro.maxplus.dater import dater_evolution

__all__ = [
    "NEG_INF",
    "oplus",
    "otimes",
    "is_neg_inf",
    "Arc",
    "TokenGraph",
    "CycleResult",
    "max_cycle_ratio",
    "max_cycle_ratio_brute_force",
    "dater_evolution",
]
