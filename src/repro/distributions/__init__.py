"""Random operation-time laws and stochastic-order tools (Sections 2.4, 6)."""

from repro.distributions.base import Distribution
from repro.distributions.deterministic import Deterministic
from repro.distributions.exponential import Exponential
from repro.distributions.uniform import Uniform
from repro.distributions.gamma_ import Gamma, Erlang
from repro.distributions.beta_ import ScaledBeta
from repro.distributions.normal_ import TruncatedNormal
from repro.distributions.weibull import Weibull
from repro.distributions.lognormal import LogNormal
from repro.distributions.hyperexponential import HyperExponential
from repro.distributions.registry import available_families, make_distribution
from repro.distributions.orders import (
    empirical_st_dominated,
    empirical_icx_dominated,
    mean_residual_life,
    nbue_margin,
    is_empirically_nbue,
    stop_loss,
)

__all__ = [
    "Distribution",
    "Deterministic",
    "Exponential",
    "Uniform",
    "Gamma",
    "Erlang",
    "ScaledBeta",
    "TruncatedNormal",
    "Weibull",
    "LogNormal",
    "HyperExponential",
    "available_families",
    "make_distribution",
    "empirical_st_dominated",
    "empirical_icx_dominated",
    "mean_residual_life",
    "nbue_margin",
    "is_empirically_nbue",
    "stop_loss",
]
