"""Timed event graphs (timed Petri nets where every place has exactly one
input and one output transition) — the modelling substrate of Section 3.

A :class:`TimedEventGraph` stores transitions (computations / file
transfers) and places (dependences). Transitions carry their *mean* firing
time and the hardware resource they occupy; probabilistic analyses replace
the constant by a law with that mean (Section 2.4's I.I.D.-per-resource
hypothesis is honoured because every transition knows its resource key).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.exceptions import StructuralError
from repro.maxplus.graph import TokenGraph
from repro.types import PlaceKind, TransitionKind


@dataclass(frozen=True, slots=True)
class Transition:
    """One timed transition of the event graph.

    ``resource`` identifies the hardware occupied while firing:
    ``("cpu", p)`` for a computation on ``P_p`` or ``("link", p, q)`` for a
    transfer on ``link_{p,q}``. All transitions sharing a resource share
    the same time law (I.I.D. hypothesis).
    """

    index: int
    kind: TransitionKind
    column: int
    row: int
    stage: int
    resource: tuple
    mean_time: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.mean_time < 0:
            raise StructuralError(f"negative firing time on {self.label or self.index}")


@dataclass(frozen=True, slots=True)
class Place:
    """One place, i.e. one dependence arc ``src → dst`` with initial tokens."""

    index: int
    src: int
    dst: int
    tokens: int
    kind: PlaceKind

    def __post_init__(self) -> None:
        if self.tokens < 0:
            raise StructuralError(f"negative marking on place {self.index}")


@dataclass
class TimedEventGraph:
    """A complete timed event graph plus its grid metadata.

    ``n_rows`` is the number of round-robin paths ``m`` and ``n_columns``
    is ``2N - 1`` (computation and communication columns interleaved);
    ``grid[column][row]`` gives the transition index at that grid cell.
    """

    n_rows: int
    n_columns: int
    transitions: list[Transition] = field(default_factory=list)
    places: list[Place] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Construction helpers (used by the builders)
    # ------------------------------------------------------------------
    def add_transition(
        self,
        kind: TransitionKind,
        column: int,
        row: int,
        stage: int,
        resource: tuple,
        mean_time: float,
        label: str = "",
    ) -> int:
        idx = len(self.transitions)
        self.transitions.append(
            Transition(idx, kind, column, row, stage, resource, mean_time, label)
        )
        return idx

    def add_place(self, src: int, dst: int, tokens: int, kind: PlaceKind) -> int:
        n = len(self.transitions)
        if not (0 <= src < n and 0 <= dst < n):
            raise StructuralError(f"place endpoints ({src}, {dst}) out of range")
        idx = len(self.places)
        self.places.append(Place(idx, src, dst, tokens, kind))
        return idx

    # ------------------------------------------------------------------
    # Topology accessors
    # ------------------------------------------------------------------
    @cached_property
    def grid(self) -> np.ndarray:
        """``grid[column, row]`` → transition index (-1 when absent)."""
        g = np.full((self.n_columns, self.n_rows), -1, dtype=np.int64)
        for t in self.transitions:
            g[t.column, t.row] = t.index
        return g

    @cached_property
    def in_places(self) -> list[list[int]]:
        """Place indices entering each transition."""
        table: list[list[int]] = [[] for _ in self.transitions]
        for p in self.places:
            table[p.dst].append(p.index)
        return table

    @cached_property
    def out_places(self) -> list[list[int]]:
        """Place indices leaving each transition."""
        table: list[list[int]] = [[] for _ in self.transitions]
        for p in self.places:
            table[p.src].append(p.index)
        return table

    @cached_property
    def kernel(self):
        """Cached :class:`~repro.kernels.IncidenceKernel` of this net.

        Dense ``(n_transitions, n_places)`` incidence matrices for the
        reachability explorer; only marking-level analyses need them, so
        the simulator and the (max,+) evaluators never build them. Like
        the other cached topology accessors, build the net fully before
        first access.
        """
        from repro.kernels import IncidenceKernel

        return IncidenceKernel.from_net(self)

    def incidence_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """The (consumption, production) int8 incidence matrices."""
        k = self.kernel
        return k.consumption, k.production

    @property
    def n_transitions(self) -> int:
        return len(self.transitions)

    @property
    def n_places(self) -> int:
        return len(self.places)

    def initial_marking(self) -> np.ndarray:
        """Vector of initial token counts, indexed by place."""
        return np.fromiter((p.tokens for p in self.places), dtype=np.int64,
                           count=len(self.places))

    def last_column_transitions(self) -> list[int]:
        """Transitions whose firing completes a data set (last stage)."""
        last = self.n_columns - 1
        return [t.index for t in self.transitions if t.column == last]

    def column_transitions(self, column: int) -> list[int]:
        return [t.index for t in self.transitions if t.column == column]

    def mean_times(self) -> np.ndarray:
        """Vector of mean firing times, indexed by transition."""
        return np.fromiter(
            (t.mean_time for t in self.transitions), dtype=float,
            count=len(self.transitions),
        )

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_token_graph(self, times: np.ndarray | None = None) -> TokenGraph:
        """Precedence token graph for the (max,+) analysis.

        Arc ``src → dst`` carries the firing time of ``src`` (so a cycle's
        weight sums the firing times of its transitions exactly once) and
        the place's initial tokens.
        """
        times = self.mean_times() if times is None else np.asarray(times, dtype=float)
        g = TokenGraph(self.n_transitions)
        for p in self.places:
            g.add_arc(p.src, p.dst, weight=float(times[p.src]), tokens=p.tokens)
        return g

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TimedEventGraph(rows={self.n_rows}, cols={self.n_columns}, "
            f"|T|={self.n_transitions}, |P|={self.n_places})"
        )
