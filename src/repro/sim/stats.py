"""Streaming statistics and confidence intervals for the runners."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist


@dataclass
class OnlineStats:
    """Welford's online mean/variance accumulator."""

    n: int = 0
    mean: float = 0.0
    _m2: float = field(default=0.0, repr=False)
    min: float = math.inf
    max: float = -math.inf

    def push(self, x: float) -> None:
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self._m2 += delta * (x - self.mean)
        self.min = min(self.min, x)
        self.max = max(self.max, x)

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0 for fewer than two samples)."""
        if self.n < 2:
            return 0.0
        return self._m2 / (self.n - 1)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    @property
    def cv(self) -> float:
        """Coefficient of variation ``std / mean`` (0 for zero mean)."""
        return self.std / self.mean if self.mean else 0.0


def normal_confidence_interval(
    mean: float, std: float, n: int, *, confidence: float = 0.95
) -> tuple[float, float]:
    """Normal-approximation CI for the mean of ``n`` I.I.D. replications.

    The quantile comes from the standard library, which keeps
    ``scipy.stats`` (about 0.7 s to import) off the replication path; it
    is within 6 ulp of ``scipy.stats.norm.ppf`` at levels 0.01 to 0.999
    (1.9599639845400536 at 95%, where scipy reads 1.959963984540054).
    """
    if n < 2:
        return (mean, mean)
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    half = z * std / math.sqrt(n)
    return (mean - half, mean + half)
