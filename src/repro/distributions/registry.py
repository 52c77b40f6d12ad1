"""Construction of distributions by family name.

The experiment drivers (and the CLI) describe laws as
``("gamma", {"shape": 0.5})``-style pairs plus a mean; this registry maps
those descriptions to concrete :class:`Distribution` objects.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable, Mapping

from repro.distributions.base import Distribution
from repro.distributions.beta_ import ScaledBeta
from repro.distributions.deterministic import Deterministic
from repro.distributions.exponential import Exponential
from repro.distributions.gamma_ import Erlang, Gamma
from repro.distributions.hyperexponential import HyperExponential
from repro.distributions.lognormal import LogNormal
from repro.distributions.normal_ import TruncatedNormal
from repro.distributions.uniform import Uniform
from repro.distributions.weibull import Weibull
from repro.exceptions import InvalidDistributionError

_FACTORIES: dict[str, Callable[..., Distribution]] = {
    "deterministic": lambda mean: Deterministic(mean),
    "constant": lambda mean: Deterministic(mean),
    "exponential": lambda mean: Exponential(mean),
    "uniform": lambda mean, rel_half_width=1.0: Uniform.from_mean(
        mean, rel_half_width
    ),
    "gamma": lambda mean, shape=2.0: Gamma.from_mean(mean, shape),
    "erlang": lambda mean, k=2: Erlang.from_mean(mean, k),
    "beta": lambda mean, shape=2.0: ScaledBeta.from_mean(mean, shape),
    "truncnorm": lambda mean, sigma=1.0: TruncatedNormal.from_mean(mean, sigma),
    "gauss": lambda mean, sigma=1.0: TruncatedNormal.from_mean(mean, sigma),
    "weibull": lambda mean, shape=2.0: Weibull.from_mean(mean, shape),
    "lognormal": lambda mean, sigma=1.0: LogNormal.from_mean(mean, sigma),
    "hyperexponential": lambda mean, cv2=4.0: HyperExponential.from_mean(
        mean, cv2
    ),
}

#: The shape parameters each family takes (its factory's keywords).
_PARAMS: dict[str, tuple[str, ...]] = {
    name: tuple(inspect.signature(factory).parameters)[1:]
    for name, factory in _FACTORIES.items()
}


def available_families() -> tuple[str, ...]:
    """Names accepted by :func:`make_distribution`."""
    return tuple(sorted(_FACTORIES))


def make_distribution(
    family: str, mean: float, /, **params: float
) -> Distribution:
    """Build a law of the given family with expectation ``mean``.

    ``params`` are the family's shape parameters; one the family does not
    take raises :class:`~repro.exceptions.InvalidDistributionError`.

    >>> make_distribution("gamma", 2.0, shape=0.5).is_nbue
    False
    """
    key = family.lower()
    try:
        factory = _FACTORIES[key]
    except KeyError:
        raise InvalidDistributionError(
            f"unknown distribution family {family!r}; "
            f"available: {', '.join(available_families())}"
        ) from None
    unknown = params.keys() - _PARAMS[key]
    if unknown:
        raise InvalidDistributionError(
            f"distribution family {family!r} does not take "
            f"{', '.join(sorted(unknown))}; it takes "
            f"{', '.join(_PARAMS[key]) or 'no parameters'}"
        )
    return factory(mean, **params)


def shape_factory(family: str, **params: float) -> Callable[[float], Distribution]:
    """A ``mean -> Distribution`` factory with the family/shape frozen.

    This is the form consumed by the simulators: one shape is applied to
    every resource, each with its own mean (paper Section 7.6 does exactly
    this — "the mean value is the same for all distributions" refers to
    matching means across *families*).
    """
    def build(mean: float) -> Distribution:
        return make_distribution(family, mean, **params)

    return build


def family_params_label(family: str, params: Mapping[str, float]) -> str:
    """Human-readable label, e.g. ``"gamma(shape=0.5)"``."""
    if not params:
        return family
    inner = ", ".join(f"{k}={v:g}" for k, v in sorted(params.items()))
    return f"{family}({inner})"
