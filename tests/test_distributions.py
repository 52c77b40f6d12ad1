"""Unit tests for the probability laws (means, variances, N.B.U.E. flags)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributions import (
    Deterministic,
    Erlang,
    Exponential,
    Gamma,
    HyperExponential,
    LogNormal,
    ScaledBeta,
    TruncatedNormal,
    Uniform,
    Weibull,
    available_families,
    make_distribution,
)
from repro.exceptions import InvalidDistributionError

ALL_LAWS = [
    Deterministic(2.0),
    Exponential(2.0),
    Uniform.from_mean(2.0, 0.5),
    Gamma.from_mean(2.0, shape=3.0),
    Gamma.from_mean(2.0, shape=0.5),
    Erlang.from_mean(2.0, k=4),
    ScaledBeta.from_mean(2.0, shape=2.0),
    TruncatedNormal.from_mean(2.0, sigma=0.5),
    Weibull.from_mean(2.0, shape=2.0),
    LogNormal.from_mean(2.0, sigma=0.8),
    HyperExponential.from_mean(2.0, cv2=4.0),
]


@pytest.mark.parametrize("dist", ALL_LAWS, ids=lambda d: d.name + f"-{d.cv2:.2f}")
class TestCommonContract:
    def test_declared_mean_is_two(self, dist):
        assert dist.mean == pytest.approx(2.0, rel=1e-9)

    def test_sample_mean_matches(self, dist, rng):
        x = dist.sample(rng, 60_000)
        assert np.mean(x) == pytest.approx(2.0, rel=0.03)

    def test_sample_variance_matches(self, dist, rng):
        x = dist.sample(rng, 120_000)
        assert np.var(x) == pytest.approx(dist.variance, rel=0.1, abs=1e-12)

    def test_samples_non_negative(self, dist, rng):
        x = dist.sample(rng, 10_000)
        assert (np.asarray(x) >= 0).all()

    def test_scalar_sample(self, dist, rng):
        x = dist.sample(rng)
        assert np.isscalar(x) or np.ndim(x) == 0

    def test_with_mean_rescales(self, dist):
        d2 = dist.with_mean(5.0)
        assert d2.mean == pytest.approx(5.0, rel=1e-6)
        assert type(d2) is type(dist)

    def test_with_mean_preserves_cv2(self, dist):
        d2 = dist.with_mean(7.0)
        assert d2.cv2 == pytest.approx(dist.cv2, rel=1e-6, abs=1e-12)

    def test_std_consistent(self, dist):
        assert dist.std == pytest.approx(np.sqrt(dist.variance))


class TestNBUEClassification:
    """Analytic N.B.U.E. flags (the hypothesis of Theorem 7)."""

    def test_deterministic_is_nbue(self):
        assert Deterministic(1.0).is_nbue

    def test_exponential_is_nbue(self):
        assert Exponential(1.0).is_nbue

    def test_uniform_is_nbue(self):
        # Documented deviation from the paper's Fig. 17 labelling.
        assert Uniform.from_mean(1.0).is_nbue

    def test_gamma_threshold(self):
        assert Gamma.from_mean(1.0, shape=1.5).is_nbue
        assert Gamma.from_mean(1.0, shape=1.0).is_nbue
        assert not Gamma.from_mean(1.0, shape=0.5).is_nbue

    def test_weibull_threshold(self):
        assert Weibull.from_mean(1.0, shape=2.0).is_nbue
        assert not Weibull.from_mean(1.0, shape=0.7).is_nbue

    def test_beta_threshold(self):
        assert ScaledBeta.from_mean(1.0, shape=2.0).is_nbue
        assert not ScaledBeta(0.5, 0.5, 2.0).is_nbue

    def test_truncnorm_is_nbue(self):
        assert TruncatedNormal.from_mean(1.0, sigma=0.3).is_nbue

    def test_hyperexponential_not_nbue(self):
        assert not HyperExponential.from_mean(1.0, cv2=4.0).is_nbue

    def test_lognormal_not_nbue(self):
        assert not LogNormal.from_mean(1.0, sigma=1.0).is_nbue

    def test_erlang_is_nbue(self):
        assert Erlang.from_mean(1.0, k=3).is_nbue


class TestSpecificLaws:
    def test_deterministic_samples_constant(self, rng):
        x = Deterministic(3.0).sample(rng, 100)
        assert np.all(x == 3.0)

    def test_exponential_rate(self):
        assert Exponential(0.5).rate == 2.0
        assert Exponential.from_rate(4.0).mean == 0.25

    def test_exponential_memorylessness_moment(self, rng):
        """E[X - t | X > t] == E[X] — the N.B.U.E. boundary case."""
        d = Exponential(2.0)
        x = d.sample(rng, 400_000)
        t = 1.5
        tail = x[x > t] - t
        assert tail.mean() == pytest.approx(2.0, rel=0.03)

    def test_uniform_bounds(self, rng):
        d = Uniform(1.0, 3.0)
        x = d.sample(rng, 10_000)
        assert x.min() >= 1.0 and x.max() <= 3.0
        assert d.variance == pytest.approx(4.0 / 12.0)

    def test_uniform_from_mean_support(self):
        d = Uniform.from_mean(2.0, rel_half_width=0.25)
        assert (d.low, d.high) == (1.5, 2.5)

    def test_uniform_invalid(self):
        with pytest.raises(InvalidDistributionError):
            Uniform(3.0, 1.0)
        with pytest.raises(InvalidDistributionError):
            Uniform.from_mean(1.0, rel_half_width=1.5)

    def test_gamma_shape_one_is_exponential(self, rng):
        g = Gamma.from_mean(2.0, shape=1.0)
        assert g.variance == pytest.approx(4.0)

    def test_erlang_integer_shape_required(self):
        with pytest.raises(ValueError):
            Erlang(2.5, 1.0)  # type: ignore[arg-type]

    def test_beta_support(self, rng):
        d = ScaledBeta.from_mean(2.0, shape=2.0)
        x = d.sample(rng, 10_000)
        assert x.max() <= d.scale and x.min() >= 0.0

    def test_truncnorm_exact_mean_inversion(self):
        """from_mean targets the *truncated* mean even for large sigma."""
        d = TruncatedNormal.from_mean(1.0, sigma=2.0)
        assert d.mean == pytest.approx(1.0, rel=1e-6)

    def test_weibull_shape_one_is_exponential(self):
        w = Weibull.from_mean(3.0, shape=1.0)
        assert w.variance == pytest.approx(9.0, rel=1e-9)

    def test_hyperexponential_cv2(self):
        d = HyperExponential.from_mean(1.0, cv2=9.0)
        assert d.cv2 == pytest.approx(9.0, rel=1e-9)

    def test_hyperexponential_needs_cv2_above_one(self):
        with pytest.raises(InvalidDistributionError):
            HyperExponential.from_mean(1.0, cv2=0.9)

    def test_lognormal_moments(self):
        d = LogNormal.from_mean(2.0, sigma=0.5)
        assert d.mean == pytest.approx(2.0)
        assert d.variance == pytest.approx((np.exp(0.25) - 1) * 4.0, rel=1e-9)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(InvalidDistributionError):
            Exponential(0.0)
        with pytest.raises(InvalidDistributionError):
            Gamma(-1.0, 1.0)
        with pytest.raises(InvalidDistributionError):
            Deterministic(-2.0)
        with pytest.raises(InvalidDistributionError):
            HyperExponential(1.5, 1.0, 1.0)


class TestRegistry:
    def test_all_families_constructible(self):
        for family in available_families():
            d = make_distribution(family, 2.0)
            assert d.mean == pytest.approx(2.0, rel=1e-6)

    def test_unknown_family(self):
        with pytest.raises(InvalidDistributionError, match="unknown"):
            make_distribution("cauchy", 1.0)

    def test_params_forwarded(self):
        d = make_distribution("gamma", 1.0, shape=0.5)
        assert not d.is_nbue

    @pytest.mark.parametrize(
        "family,params,accepted",
        [
            # A misspelt DFR shape must not silently give the N.B.U.E.
            # default gamma.
            ("gamma", {"shapez": 0.5}, "shape"),
            ("uniform", {"rel_halfwidth": 0.1}, "rel_half_width"),
            ("exponential", {"shape": 0.5}, "no parameters"),
            ("erlang", {"k": 3, "shape": 2.0}, "k"),
        ],
        ids=["gamma", "uniform", "exponential", "erlang"],
    )
    def test_unknown_parameter_rejected(self, family, params, accepted):
        with pytest.raises(InvalidDistributionError) as info:
            make_distribution(family, 2.0, **params)
        message = str(info.value)
        assert repr(family) in message
        assert f"takes {accepted}" in message

