"""Weighted token graphs — the combinatorial core of the static analysis.

A :class:`TokenGraph` is a directed multigraph whose arcs carry a real
``weight`` (firing time contribution) and an integer ``tokens`` count
(initial marking of the corresponding place). The deterministic period of a
timed event graph is the maximum over cycles ``C`` of
``Σ weight(C) / Σ tokens(C)`` (paper Section 4); the graph is extracted
from a TPN by mapping transitions to nodes and places to arcs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Iterable, Iterator

from repro.exceptions import StructuralError


@dataclass(frozen=True, slots=True)
class Arc:
    """A place seen as an arc of the precedence graph."""

    src: int
    dst: int
    weight: float
    tokens: int

    def __post_init__(self) -> None:
        if self.tokens < 0:
            raise StructuralError(f"negative token count on arc {self}")
        if not math.isfinite(self.weight):
            raise StructuralError(f"non-finite weight on arc {self}")


class TokenGraph:
    """Directed multigraph with (weight, tokens) arcs."""

    __slots__ = ("_n", "_arcs")

    def __init__(self, n_nodes: int, arcs: Iterable[Arc] = ()) -> None:
        if n_nodes < 1:
            raise StructuralError("a token graph needs at least one node")
        self._n = int(n_nodes)
        self._arcs: list[Arc] = []
        for a in arcs:
            self.add_arc(a.src, a.dst, weight=a.weight, tokens=a.tokens)

    # ------------------------------------------------------------------
    def add_arc(self, src: int, dst: int, *, weight: float, tokens: int) -> None:
        if not (0 <= src < self._n and 0 <= dst < self._n):
            raise StructuralError(
                f"arc ({src}->{dst}) outside node range 0..{self._n - 1}"
            )
        self._arcs.append(Arc(src, dst, float(weight), int(tokens)))

    @property
    def n_nodes(self) -> int:
        return self._n

    @property
    def n_arcs(self) -> int:
        return len(self._arcs)

    @property
    def arcs(self) -> tuple[Arc, ...]:
        return tuple(self._arcs)

    def __iter__(self) -> Iterator[Arc]:
        return iter(self._arcs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TokenGraph(nodes={self._n}, arcs={len(self._arcs)})"

    # ------------------------------------------------------------------
    def to_networkx(self):
        """A ``networkx.MultiDiGraph`` view (used by tests / brute force)."""
        import networkx as nx

        g = nx.MultiDiGraph()
        g.add_nodes_from(range(self._n))
        for a in self._arcs:
            g.add_edge(a.src, a.dst, weight=a.weight, tokens=a.tokens)
        return g

    def zero_token_order(self) -> list[int] | None:
        """A topological order of the zero-token arcs, or ``None`` on a cycle.

        Kahn's sort over the arcs that carry no token, in one
        ``O(V + E)`` pass: it removes every node exactly when they form
        no cycle. Within one firing round, the daters of a live net are
        evaluated in this order.
        """
        succ: list[list[int]] = [[] for _ in range(self._n)]
        indegree = [0] * self._n
        for a in self._arcs:
            if a.tokens == 0:
                succ[a.src].append(a.dst)
                indegree[a.dst] += 1
        stack = [v for v in range(self._n) if not indegree[v]]
        order: list[int] = []
        while stack:
            u = stack.pop()
            order.append(u)
            for v in succ[u]:
                indegree[v] -= 1
                if not indegree[v]:
                    stack.append(v)
        return order if len(order) == self._n else None

    def has_zero_token_cycle(self) -> bool:
        """Whether some cycle carries no token (a dead / non-live TPN).

        Such a cycle can never fire: the maximum cycle ratio would be
        ``+inf``. The builders never produce one; this check guards
        hand-built graphs (see :meth:`zero_token_order`).
        """
        return self.zero_token_order() is None
