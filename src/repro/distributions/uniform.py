"""Uniform operation times.

Note on the paper's Fig. 17: the paper lists "Uniform" among the
*non*-N.B.U.E. laws, but a uniform law on ``[a, b]`` with ``a >= 0`` has an
increasing hazard rate, hence is N.B.U. and a fortiori N.B.U.E.
(``E[X - t | X > t] = (b - t)/2 <= (a + b)/2`` for ``a <= t < b``). We
classify it as N.B.U.E., which the paper's figure itself bears out: its
uniform curve lies between the Theorem 7 bounds (see
:mod:`repro.experiments.fig17`).
"""

from __future__ import annotations

import numpy as np

from repro.distributions.base import Distribution
from repro.exceptions import InvalidDistributionError


class Uniform(Distribution):
    """The uniform law on ``[low, high]`` with ``0 <= low <= high``."""

    __slots__ = ("_low", "_high")

    def __init__(self, low: float, high: float) -> None:
        low = self._check_non_negative(low, "uniform lower bound")
        high = self._check_non_negative(high, "uniform upper bound")
        if high < low:
            raise InvalidDistributionError(f"need low <= high, got [{low}, {high}]")
        self._low, self._high = low, high

    @classmethod
    def from_mean(cls, mean: float, rel_half_width: float = 1.0) -> "Uniform":
        """Uniform on ``mean · [1 - w, 1 + w]`` with ``w = rel_half_width``.

        ``w = 1`` (default) gives the widest non-negative support
        ``[0, 2·mean]``; the paper's "Uniform X" experiments vary the width.
        """
        if not 0.0 <= rel_half_width <= 1.0:
            raise InvalidDistributionError(
                f"rel_half_width must be within [0, 1], got {rel_half_width}"
            )
        m = cls._check_non_negative(mean, "uniform mean")
        return cls(m * (1.0 - rel_half_width), m * (1.0 + rel_half_width))

    @property
    def name(self) -> str:
        return "uniform"

    @property
    def low(self) -> float:
        return self._low

    @property
    def high(self) -> float:
        return self._high

    @property
    def mean(self) -> float:
        return 0.5 * (self._low + self._high)

    @property
    def variance(self) -> float:
        w = self._high - self._low
        return w * w / 12.0

    @property
    def is_nbue(self) -> bool:
        return True

    def sample(self, rng: np.random.Generator, size: int | None = None):
        return rng.uniform(self._low, self._high, size=size)

    def _quantile(self, q):
        q = np.asarray(q, dtype=float)
        out = self._low + (self._high - self._low) * q
        return out if out.size > 1 else float(out)

    def with_mean(self, mean: float) -> "Uniform":
        old_mean = self.mean
        if old_mean == 0.0:
            return Uniform(mean, mean)
        scale = mean / old_mean
        return Uniform(self._low * scale, self._high * scale)
