"""Per-resource laws shared by the simulators.

The I.I.D. hypothesis of Section 2.4 attaches one law per hardware
resource; a :class:`LawSpec` freezes a family/shape and instantiates it
with each resource's mean. Both simulators draw every duration of a run
up front, in vectorized calls.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.distributions.base import Distribution
from repro.distributions.registry import make_distribution

#: Anything convertible to a ``mean -> Distribution`` factory.
LawLike = "str | Callable[[float], Distribution] | LawSpec"


@dataclass(frozen=True)
class LawSpec:
    """A distribution family plus its shape parameters (mean left free)."""

    family: str
    params: tuple[tuple[str, float], ...] = ()

    @classmethod
    def of(cls, family: str, **params: float) -> "LawSpec":
        return cls(family, tuple(sorted(params.items())))

    def instantiate(self, mean: float) -> Distribution:
        return make_distribution(self.family, mean, **dict(self.params))

    @property
    def label(self) -> str:
        if not self.params:
            return self.family
        inner = ", ".join(f"{k}={v:g}" for k, v in self.params)
        return f"{self.family}({inner})"


def as_factory(law: "LawLike") -> Callable[[float], Distribution]:
    """Normalize a law designation into a ``mean -> Distribution`` factory."""
    if isinstance(law, LawSpec):
        return law.instantiate
    if isinstance(law, str):
        return LawSpec.of(law).instantiate
    if callable(law):
        return law
    raise TypeError(f"cannot interpret {law!r} as a law")
