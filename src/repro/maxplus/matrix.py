"""Dense (max,+) matrices.

A square (max,+) matrix ``A`` encodes a weighted precedence graph
(``A[i, j]`` is the weight of arc ``i → j``, ``-inf`` when absent). The
library uses them for the dater recursions of Section 6's proofs and for
property-testing the cycle algorithms: the (max,+) eigenvalue of an
irreducible matrix equals its maximum mean cycle weight.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import StructuralError
from repro.maxplus.semiring import NEG_INF


class MaxPlusMatrix:
    """A square matrix over the (max,+) semiring."""

    __slots__ = ("_a",)

    def __init__(self, data: np.ndarray | Sequence[Sequence[float]]) -> None:
        a = np.array(data, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise StructuralError(f"expected a square matrix, got shape {a.shape}")
        self._a = a

    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, n: int) -> "MaxPlusMatrix":
        """The semiring zero matrix (all entries ``-inf``)."""
        return cls(np.full((n, n), NEG_INF))

    @classmethod
    def identity(cls, n: int) -> "MaxPlusMatrix":
        """The semiring identity (0 on the diagonal, ``-inf`` elsewhere)."""
        a = np.full((n, n), NEG_INF)
        np.fill_diagonal(a, 0.0)
        return cls(a)

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self._a.shape[0]

    @property
    def array(self) -> np.ndarray:
        """The underlying ndarray (``-inf`` marks absent arcs)."""
        return self._a

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MaxPlusMatrix) and np.array_equal(self._a, other._a)

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("MaxPlusMatrix is not hashable")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MaxPlusMatrix(n={self.n})"

    # ------------------------------------------------------------------
    #: Row-block budget for :meth:`matmul` temporaries, in float64 elements
    #: (8 MB). The block height adapts so the broadcast scratch stays
    #: ``O(n²)`` memory however large the matrix gets.
    _BLOCK_ELEMENTS = 1 << 20

    def matmul(self, other: "MaxPlusMatrix") -> "MaxPlusMatrix":
        """Semiring product ``(A ⊗ B)[i,j] = max_k (A[i,k] + B[k,j])``.

        Vectorized with broadcasting, row-blocked: the scratch tensor for
        a block of ``r`` rows has shape ``(r, n, n)``, and ``r`` is chosen
        so it stays within :attr:`_BLOCK_ELEMENTS` — O(n²) memory overall
        instead of the full ``(n, n, n)`` temporary.
        """
        a, b = self._a, other._a
        n = self.n
        rows = max(1, min(n, self._BLOCK_ELEMENTS // max(1, n * n)))
        out = np.empty_like(a)
        for i0 in range(0, n, rows):
            i1 = min(n, i0 + rows)
            out[i0:i1] = (a[i0:i1, :, None] + b[None, :, :]).max(axis=1)
        return MaxPlusMatrix(out)

    def __matmul__(self, other: "MaxPlusMatrix") -> "MaxPlusMatrix":
        return self.matmul(other)

    def vecmul(self, vec: np.ndarray) -> np.ndarray:
        """Row-vector product ``(v ⊗ A)[j] = max_i (v[i] + A[i,j])``.

        This is the dater update ``D(n) = D(n-1) ⊗ A(n)`` used in the
        proof of Theorem 5.
        """
        v = np.asarray(vec, dtype=float)
        return (v[:, None] + self._a).max(axis=0)

    def power(self, k: int) -> "MaxPlusMatrix":
        """Semiring power ``A^{⊗k}`` by binary exponentiation."""
        if k < 0:
            raise ValueError("negative powers are undefined in (max,+)")
        result = MaxPlusMatrix.identity(self.n)
        base = MaxPlusMatrix(self._a.copy())
        while k:
            if k & 1:
                result = result @ base
            base = base @ base
            k >>= 1
        return result

    # ------------------------------------------------------------------
    def is_irreducible(self) -> bool:
        """Whether the precedence graph is strongly connected."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(self.n))
        rows, cols = np.nonzero(np.isfinite(self._a))
        g.add_edges_from(zip(rows.tolist(), cols.tolist()))
        return nx.is_strongly_connected(g)

    def eigenvalue(self) -> float:
        """(max,+) eigenvalue of an irreducible matrix.

        Equals the maximum mean cycle weight of the precedence graph
        (Baccelli et al. [2], Thm. 3.23): the maximum cycle ratio of that
        graph with one token on every arc.
        """
        from repro.maxplus.cycle import max_cycle_ratio
        from repro.maxplus.graph import TokenGraph

        if not self.is_irreducible():
            raise StructuralError("eigenvalue requires an irreducible matrix")
        g = TokenGraph(self.n)
        rows, cols = np.nonzero(np.isfinite(self._a))
        for i, j in zip(rows.tolist(), cols.tolist()):
            g.add_arc(i, j, weight=float(self._a[i, j]), tokens=1)
        res = max_cycle_ratio(g)
        if res is None:
            raise StructuralError("eigenvalue requires at least one cycle")
        return res.ratio
