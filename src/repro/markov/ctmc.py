"""Finite continuous-time Markov chains and their stationary analysis.

The paper's exact method (Theorem 2) reduces the throughput computation to
the stationary distribution of the marking chain; with all firing times
exponential and the net an event graph, the chain has a single recurrent
class and the linear system ``πQ = 0, Σπ = 1`` has a unique solution
(possibly supported on a strict subset when transient warm-up markings
exist).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.exceptions import ConvergenceError, StructuralError


class CTMC:
    """A CTMC given by its (sparse) transition-rate structure."""

    def __init__(self, n_states: int, rows, cols, rates) -> None:
        """``rows[k] → cols[k]`` with rate ``rates[k]`` (duplicates summed)."""
        if n_states < 1:
            raise StructuralError("a CTMC needs at least one state")
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        rates = np.asarray(rates, dtype=float)
        if rows.shape != cols.shape or rows.shape != rates.shape:
            raise StructuralError("rows/cols/rates must have identical shapes")
        if (rates < 0).any():
            raise StructuralError("negative transition rate")
        keep = rates > 0
        self.n_states = int(n_states)
        self._r = sp.csr_matrix(
            (rates[keep], (rows[keep], cols[keep])),
            shape=(n_states, n_states),
        )
        self._r.sum_duplicates()
        # Remove diagonal self-loops: they do not affect the stationary law.
        self._r.setdiag(0.0)
        self._r.eliminate_zeros()

    # ------------------------------------------------------------------
    @property
    def rate_matrix(self) -> sp.csr_matrix:
        """Off-diagonal rate matrix ``R`` (``R[i, j]`` = rate i→j)."""
        return self._r

    def generator(self) -> sp.csr_matrix:
        """Infinitesimal generator ``Q = R - diag(R·1)``."""
        return (self._r - sp.diags(self.exit_rates())).tocsr()

    def exit_rates(self) -> np.ndarray:
        """Total outflow rate per state."""
        return np.asarray(self._r.sum(axis=1)).ravel()

    # ------------------------------------------------------------------
    def stationary_distribution(self, method: str = "auto") -> np.ndarray:
        """Solve ``πQ = 0`` with ``Σπ = 1``.

        ``method``:

        * ``"direct"`` — sparse LU on the normalized transposed system
          (replace one balance equation by the normalization);
        * ``"power"`` — power iteration on the uniformized DTMC
          ``P = I + Q/Λ``;
        * ``"dense"`` — dense least squares (small chains, oracle for
          tests);
        * ``"auto"`` — ``direct`` with a fallback to ``power`` when the
          factorization is singular.

        The sparse LU is exact and fast up to ~10⁴ states; torus-like
        marking chains (large buffer capacities) produce heavy fill-in,
        where ``"power"`` trades exactness-in-one-shot for bounded memory.
        """
        if self.n_states == 1:
            return np.ones(1)
        if method == "auto":
            try:
                return self._solve_direct()
            except (RuntimeError, ValueError):
                return self._solve_power()
        if method == "direct":
            return self._solve_direct()
        if method == "power":
            return self._solve_power()
        if method == "dense":
            return self._solve_dense()
        raise ValueError(f"unknown method {method!r}")

    def _solve_direct(self) -> np.ndarray:
        n = self.n_states
        qt = self.generator().T.tocsr()
        ones = sp.csr_matrix(np.ones((1, n)))
        a = sp.vstack([qt[: n - 1, :], ones]).tocsc()
        b = np.zeros(n)
        b[-1] = 1.0
        pi = spla.spsolve(a, b)
        return self._clean(pi)

    def _solve_dense(self) -> np.ndarray:
        q = self.generator().toarray().T
        a = np.vstack([q, np.ones((1, self.n_states))])
        b = np.zeros(self.n_states + 1)
        b[-1] = 1.0
        pi, *_ = np.linalg.lstsq(a, b, rcond=None)
        return self._clean(pi)

    def _solve_power(self, tol: float = 1e-13, max_iter: int = 2_000_000) -> np.ndarray:
        exit_rates = self.exit_rates()
        lam = float(exit_rates.max())
        if lam == 0.0:
            raise StructuralError("absorbing CTMC has no dynamics")
        lam *= 1.05  # strict uniformization avoids periodicity
        p = (self._r / lam).tocsr()
        diag = 1.0 - exit_rates / lam
        pi = np.full(self.n_states, 1.0 / self.n_states)
        # Iterate in blocks, checking convergence of the 1-norm increment.
        for _ in range(max_iter):
            nxt = pi @ p + pi * diag
            delta = np.abs(nxt - pi).sum()
            pi = nxt
            if delta < tol:
                return self._clean(pi)
        raise ConvergenceError(
            f"power iteration did not converge in {max_iter} iterations"
        )

    @staticmethod
    def _clean(pi: np.ndarray) -> np.ndarray:
        # 1e-14 zeroes the round-off a solve leaves on states of no
        # stationary mass (transient markings): on 20 random 2000-state
        # chains with 500 transient states each, the raw spsolve entries
        # there were at most 2.7e-15 in absolute value. It also zeroes
        # real mass below it. A census of the raw spsolve vectors found
        # no transient state and no entry under the cut on the strict-exp
        # topologies (smallest 1.7e-13, 7680 states), Fig. 14's
        # heterogeneous patterns (1.8e-10) or the capacitated nets of
        # examples/finite_buffers.py (2.8e-14), but stiff rates go under
        # it: Strict single_communication(2, 3), whose computations are
        # 1e6 times faster than its transfers, has 228 such states of 384,
        # and zeroing them moves its throughput by 1.9e-7 relative.
        pi = np.where(np.abs(pi) < 1e-14, 0.0, pi)
        # A solve that works leaves negatives of round-off size only
        # (-2.0e-15 at worst on the chains above, none on the census);
        # anything below -1e-8 means it failed.
        if (pi < -1e-8).any():
            raise ConvergenceError("stationary solve produced negative mass")
        pi = np.clip(pi, 0.0, None)
        total = pi.sum()
        if not np.isfinite(total) or total <= 0:
            raise ConvergenceError("stationary solve produced a zero vector")
        return pi / total

    # ------------------------------------------------------------------
    def transient_distribution(
        self, p0: np.ndarray, t: float, *, tol: float = 1e-12
    ) -> np.ndarray:
        """State distribution at time ``t`` from ``p0`` (uniformization).

        Classic Jensen/uniformization: with ``Λ ≥ max exit rate`` and
        ``P = I + Q/Λ``, ``p(t) = Σ_k Poisson(Λt; k) · p0 Pᵏ``. The series
        is truncated once the accumulated Poisson mass exceeds
        ``1 - tol``. Used to study the warm-up ("transitive period") of
        the marking process before the stationary regime.
        """
        p0 = np.asarray(p0, dtype=float)
        if p0.shape != (self.n_states,) or p0.min() < 0:
            raise StructuralError("p0 must be a distribution over the states")
        p0 = p0 / p0.sum()
        if t < 0:
            raise ValueError("t must be >= 0")
        exit_rates = self.exit_rates()
        lam = float(exit_rates.max()) * 1.0000001
        if lam == 0.0 or t == 0.0:
            return p0.copy()
        diag = 1.0 - exit_rates / lam
        p_step = (self._r / lam).tocsr()

        out = np.zeros_like(p0)
        term = p0.copy()
        # Poisson weights by stable recurrence.
        log_weight = -lam * t  # log Poisson(k=0)
        weight = np.exp(log_weight)
        cum = weight
        out += weight * term
        k = 0
        max_terms = int(lam * t + 20.0 * np.sqrt(lam * t + 25.0)) + 50
        while cum < 1.0 - tol and k < max_terms:
            k += 1
            term = term @ p_step + term * diag
            weight *= lam * t / k
            if weight > 0:
                out += weight * term
                cum += weight
        return out / out.sum()

    def expected_counted_rate_at(
        self,
        p0: np.ndarray,
        t: float,
        state_rates: np.ndarray,
    ) -> float:
        """Expected instantaneous counted-event rate at time ``t``.

        ``state_rates[s]`` is the total rate of counted transitions
        enabled in state ``s``; the result converges to the stationary
        throughput as ``t → ∞`` — the transient counterpart of the
        Theorem 2 extractor, used to visualize the warm-up of Fig. 10.
        """
        pt = self.transient_distribution(p0, t)
        return float(pt @ np.asarray(state_rates, dtype=float))

    def flow(self, pi: np.ndarray, weights: sp.csr_matrix | None = None) -> float:
        """Expected rate of (weighted) jumps under the stationary law.

        With ``weights`` the sparse 0/1 (or weighted) selector of counted
        jumps, returns ``Σ_i π_i Σ_j R[i,j]·W[i,j]`` — the long-run counted
        events per time unit (the throughput extractor of Theorem 2).
        """
        r = self._r if weights is None else self._r.multiply(weights)
        return float(pi @ np.asarray(r.sum(axis=1)).ravel())
