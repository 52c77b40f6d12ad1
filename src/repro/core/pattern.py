"""The ``u × v`` communication pattern of the Overlap decomposition.

A replicated communication between ``R_i`` senders and ``R_{i+1}``
receivers splits into ``g = gcd(R_i, R_{i+1})`` independent connected
components, each a stack of copies of one *pattern* with ``u = R_i / g``
senders and ``v = R_{i+1} / g`` receivers, ``gcd(u, v) = 1``
(paper Section 5.2, Fig. 7). The pattern is a closed event graph:

* one transition per (sender, receiver) pair — ``uv`` of them, pattern row
  ``t`` pairing sender ``t mod u`` with receiver ``t mod v``;
* one round-robin cycle per sender (its ``v`` transitions in row order)
  and per receiver (its ``u`` transitions), each carrying a single token
  on the wrap-around place.

Its reachable markings biject with pairs of Young diagrams (Fig. 8/9),
giving ``S(u, v) = C(u+v-1, u-1) · v`` states, of which
``S'(u, v) = C(u+v-2, u-1)`` enable any fixed transition. With a
homogeneous rate ``λ`` the stationary law is uniform and the inner
throughput has the closed form ``u·v·λ / (u+v-1)`` (Theorem 4); with
heterogeneous rates we solve the pattern CTMC exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd

from repro.exceptions import StructuralError
from repro.maxplus.cycle import max_cycle_ratio
from repro.petri.net import TimedEventGraph
from repro.types import PlaceKind, TransitionKind


def pattern_state_count(u: int, v: int) -> int:
    """Number of reachable markings ``S(u, v)`` (proof of Theorem 3)."""
    _check_pattern(u, v)
    return comb(u + v - 1, u - 1) * v


def pattern_enabling_count(u: int, v: int) -> int:
    """``S'(u, v)`` — markings enabling a fixed transition (Theorem 4)."""
    _check_pattern(u, v)
    return comb(u + v - 2, u - 1)


def _check_pattern(u: int, v: int) -> None:
    if u < 1 or v < 1:
        raise StructuralError(f"pattern sides must be >= 1, got {u}x{v}")
    if gcd(u, v) != 1:
        raise StructuralError(f"pattern sides must be coprime, got {u}x{v}")


@dataclass(frozen=True)
class CommPattern:
    """A fully parameterized pattern: sides plus per-row mean times.

    ``means[t]`` is the mean transfer time of pattern row ``t`` (the link
    between sender ``t mod u`` and receiver ``t mod v``).
    """

    u: int
    v: int
    means: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_pattern(self.u, self.v)
        if len(self.means) != self.u * self.v:
            raise StructuralError(
                f"need {self.u * self.v} mean times, got {len(self.means)}"
            )
        if any(m <= 0 for m in self.means):
            raise StructuralError("pattern mean times must be > 0")

    @classmethod
    def homogeneous(cls, u: int, v: int, mean: float) -> "CommPattern":
        return cls(u, v, tuple([float(mean)] * (u * v)))

    @property
    def is_homogeneous(self) -> bool:
        return len(set(self.means)) == 1

    def sender_of(self, row: int) -> int:
        return row % self.u

    def receiver_of(self, row: int) -> int:
        return row % self.v


def build_pattern_tpn(pattern: CommPattern) -> TimedEventGraph:
    """The closed event graph of one pattern copy (saturated inputs)."""
    u, v = pattern.u, pattern.v
    n = u * v
    tpn = TimedEventGraph(n_rows=n, n_columns=1)
    for t in range(n):
        tpn.add_transition(
            TransitionKind.COMM,
            column=0,
            row=t,
            stage=0,
            resource=("pair", t % u, t % v),
            mean_time=pattern.means[t],
            label=f"s{t % u}->r{t % v}",
        )
    for s in range(u):
        rows = list(range(s, n, u))
        for a in range(len(rows) - 1):
            tpn.add_place(rows[a], rows[a + 1], 0, PlaceKind.OUT_PORT)
        tpn.add_place(rows[-1], rows[0], 1, PlaceKind.OUT_PORT)
    for r in range(v):
        rows = list(range(r, n, v))
        for a in range(len(rows) - 1):
            tpn.add_place(rows[a], rows[a + 1], 0, PlaceKind.IN_PORT)
        tpn.add_place(rows[-1], rows[0], 1, PlaceKind.IN_PORT)
    return tpn


def pattern_throughput_deterministic(pattern: CommPattern) -> float:
    """Inner throughput (transfers/time, saturated) with constant times.

    All ``uv`` transitions of the strongly connected pattern fire at rate
    ``1 / P`` where ``P`` is the maximum cycle ratio, so the total rate is
    ``uv / P``. Homogeneous check: ``P = d·max(u, v)``, total
    ``uv/(d·max(u,v)) = min(u,v)/d``.
    """
    tpn = build_pattern_tpn(pattern)
    res = max_cycle_ratio(tpn.to_token_graph())
    assert res is not None  # the pattern always has resource cycles
    return pattern.u * pattern.v / res.ratio


def pattern_throughput_exponential(
    pattern: CommPattern, *, max_states: int = 200_000
) -> float:
    """Inner throughput (transfers/time, saturated) with exponential times.

    Uses the Theorem 4 closed form when homogeneous, the exact pattern
    CTMC otherwise. The CTMC has ``S(u, v)`` states — fine for the sides
    the paper studies (``S(8, 9) ≈ 10^5``), guarded by ``max_states``.
    """
    if pattern.is_homogeneous:
        lam = 1.0 / pattern.means[0]
        return pattern_throughput_homogeneous(pattern.u, pattern.v, lam)
    # Imported here: repro.markov loads scipy.sparse, which only a chain
    # solve needs.
    from repro.markov.builder import tpn_throughput_exponential

    tpn = build_pattern_tpn(pattern)
    counted = list(range(tpn.n_transitions))
    return tpn_throughput_exponential(tpn, counted=counted, max_states=max_states)


def pattern_throughput_homogeneous(u: int, v: int, lam: float) -> float:
    """Theorem 4 closed form: ``u·v·λ / (u + v - 1)``.

    Derivation: the stationary law is uniform over the ``S(u, v)``
    markings, a fixed transition is enabled in ``S'(u, v)`` of them, so it
    fires at rate ``λ·S'/S = λ/(u+v-1)``; summing over the ``uv``
    transitions gives the total.
    """
    _check_pattern(u, v)
    if lam <= 0:
        raise StructuralError(f"rate must be > 0, got {lam}")
    return u * v * lam / (u + v - 1)


def exponential_to_deterministic_ratio(u: int, v: int) -> float:
    """The Fig. 15 ratio ``ρ_exp / ρ_det = max(u, v) / (u + v - 1)``.

    Deterministic inner throughput is ``min(u,v)·λ`` and the exponential
    one is ``uvλ/(u+v-1)``; the ratio lies in ``(1/2, 1]``.
    """
    _check_pattern(u, v)
    return max(u, v) / (u + v - 1)
