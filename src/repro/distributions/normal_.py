"""Truncated normal operation times (the paper's "Gauss X" laws, Fig. 16).

Operation times must be non-negative, so the normal law is truncated at 0.
The moments of the truncation are computed exactly from the parent
parameters; :meth:`TruncatedNormal.from_mean` inverts the mean relation by
Newton iteration so the *declared* mean is the exact truncated mean, which
matters when building the Theorem 7 comparison systems.
"""

from __future__ import annotations

import math

import numpy as np

from repro.distributions.base import Distribution


class TruncatedNormal(Distribution):
    """``max(0, Normal(mu, sigma))`` via proper truncation on ``[0, ∞)``."""

    __slots__ = ("_mu", "_sigma", "_frozen")

    def __init__(self, mu: float, sigma: float) -> None:
        from scipy.stats import truncnorm

        self._sigma = self._check_positive(sigma, "normal sigma")
        self._mu = float(mu)
        a = (0.0 - self._mu) / self._sigma  # standardized lower bound
        self._frozen = truncnorm(a, math.inf, loc=self._mu, scale=self._sigma)

    @classmethod
    def from_mean(cls, mean: float, sigma: float) -> "TruncatedNormal":
        """Truncated normal whose *truncated* mean equals ``mean``.

        Solves ``E[TN(mu, sigma)] = mean`` for ``mu`` by bisection: the
        truncated mean is strictly increasing in ``mu``.
        """
        from scipy.stats import truncnorm

        mean = cls._check_positive(mean, "truncated-normal mean")
        sigma = cls._check_positive(sigma, "truncated-normal sigma")

        def trunc_mean(mu: float) -> float:
            a = -mu / sigma
            return truncnorm.mean(a, math.inf, loc=mu, scale=sigma)

        lo, hi = mean - 6.0 * sigma, mean
        # trunc_mean(mu) >= max(mu, 0) so hi = mean gives trunc_mean >= mean.
        while trunc_mean(lo) > mean:  # pragma: no cover - extreme sigma
            lo -= 6.0 * sigma
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if trunc_mean(mid) < mean:
                lo = mid
            else:
                hi = mid
        return cls(0.5 * (lo + hi), sigma)

    @property
    def name(self) -> str:
        return "truncnorm"

    @property
    def mu(self) -> float:
        return self._mu

    @property
    def sigma(self) -> float:
        return self._sigma

    @property
    def mean(self) -> float:
        return float(self._frozen.mean())

    @property
    def variance(self) -> float:
        return float(self._frozen.var())

    @property
    def is_nbue(self) -> bool:
        # The normal law is IFR and truncation at 0 preserves IFR, so the
        # truncated normal is N.B.U.E. — one of the paper's Fig. 16 laws.
        return True

    def sample(self, rng: np.random.Generator, size: int | None = None):
        out = self._frozen.rvs(size=size if size is not None else 1, random_state=rng)
        if size is None:
            return float(out[0])
        return out

    def _quantile(self, q):
        out = self._frozen.ppf(np.asarray(q, dtype=float))
        return out if np.ndim(out) and np.size(out) > 1 else float(out)

    def with_mean(self, mean: float) -> "TruncatedNormal":
        # Scaling by c maps TN(mu, sigma) to TN(c·mu, c·sigma) exactly
        # (truncation at 0 commutes with positive scaling), preserving the
        # law's shape and coefficient of variation.
        s = mean / self.mean
        return TruncatedNormal(self._mu * s, self._sigma * s)
