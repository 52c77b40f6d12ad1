"""Incidence matrices of a timed event graph.

One :class:`IncidenceKernel` is built (and cached) per net; it carries

* the **consumption** and **production** incidence matrices — int8
  ``(n_transitions, n_places)`` arrays with a 1 where the transition
  consumes from / produces into the place (event graphs give each place
  exactly one input and one output transition, so every column holds a
  single 1 in each matrix);
* their difference ``delta`` (int16), the marking update of one firing.

The reachability explorer uses :meth:`enabled` (one matrix product per
frontier batch) and ``delta`` (one broadcast add per batch); the Markov
builder consumes the flat arc arrays derived from the exploration. The
matrices are dense, so nothing else builds them: the simulator and the
(max,+) evaluators walk the net's places instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class IncidenceKernel:
    """Array view of a net's structure (see module docstring)."""

    n_transitions: int
    n_places: int
    consumption: np.ndarray  # int8 (n_transitions, n_places)
    production: np.ndarray  # int8 (n_transitions, n_places)
    delta: np.ndarray  # int16 (n_transitions, n_places)
    # float32 transpose of ``consumption``, kept so the enabled-check is a
    # single BLAS matrix product instead of a (batch, n_t, n_p) temporary.
    _consumption_t: np.ndarray = field(repr=False, default=None)

    @classmethod
    def from_net(cls, net) -> "IncidenceKernel":
        """Build the kernel from a :class:`TimedEventGraph`."""
        n_t, n_p = net.n_transitions, net.n_places
        consumption = np.zeros((n_t, n_p), dtype=np.int8)
        production = np.zeros((n_t, n_p), dtype=np.int8)
        for p in net.places:
            consumption[p.dst, p.index] = 1
            production[p.src, p.index] = 1
        delta = production.astype(np.int16) - consumption.astype(np.int16)
        return cls(
            n_transitions=n_t,
            n_places=n_p,
            consumption=consumption,
            production=production,
            delta=delta,
            _consumption_t=consumption.T.astype(np.float32),
        )

    # ------------------------------------------------------------------
    def enabled(self, markings: np.ndarray) -> np.ndarray:
        """Boolean ``(batch, n_transitions)`` mask of enabled transitions.

        A transition is enabled when none of its input places is empty:
        ``(markings == 0) @ consumptionᵀ`` counts the empty input places
        per (marking, transition) pair through one float32 matrix product,
        and the mask is its zero set. Token counts never exceed the place
        bound (≤ 255 ≪ 2²⁴), so the float32 accumulation is exact.
        """
        empty = (markings == 0).astype(np.float32)
        return (empty @ self._consumption_t) == 0

    def successors(
        self, markings: np.ndarray, state_ix: np.ndarray, trans_ix: np.ndarray
    ) -> np.ndarray:
        """Markings after firing ``trans_ix[k]`` in ``markings[state_ix[k]]``.

        One gather plus one vectorized add; callers guarantee the pairs
        are enabled (so no entry goes negative).
        """
        return markings[state_ix] + self.delta[trans_ix]
