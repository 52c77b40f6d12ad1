"""Tests for the N.B.U.E. throughput bounds (paper Section 6, Theorem 7)."""

from __future__ import annotations

import pytest

from repro.core import ThroughputBounds, throughput_bounds
from repro.mapping.examples import single_communication

from tests.conftest import make_mapping


class TestBoundsObject:
    def test_ordering_enforced(self):
        with pytest.raises(AssertionError):
            ThroughputBounds(lower=2.0, upper=1.0)

    def test_contains(self):
        b = ThroughputBounds(lower=1.0, upper=2.0)
        assert b.contains(1.5)
        assert not b.contains(0.5)
        assert b.contains(0.99, rel_slack=0.01)
        assert b.width == pytest.approx(1.0)


class TestOverlapBounds:
    def test_single_comm_bounds(self):
        """Fig. 15's two curves: det = min(u,v)λ, exp = uvλ/(u+v-1)."""
        for u, v in [(2, 3), (3, 4)]:
            b = throughput_bounds(single_communication(u, v), "overlap")
            assert b.upper == pytest.approx(min(u, v), rel=1e-6)
            assert b.lower == pytest.approx(u * v / (u + v - 1), rel=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_mappings_well_ordered(self, seed):
        mp = make_mapping([[0], [1, 2], [3, 4, 5]], seed=seed)
        b = throughput_bounds(mp, "overlap")
        assert 0 < b.lower <= b.upper


class TestStrictBounds:
    def test_small_strict_ordered(self):
        mp = make_mapping([[0], [1]], works=[1.0, 2.0], files=[1.0])
        b = throughput_bounds(mp, "strict")
        assert 0 < b.lower < b.upper


class TestNbueSandwich:
    """Simulated N.B.U.E. laws must fall inside the exact sandwich —
    the substance of Theorem 7 and of the Fig. 16 reproduction."""

    NBUE_LAWS = [
        ("uniform", {}),
        ("gamma", {"shape": 3.0}),
        ("erlang", {"k": 4}),
        ("truncnorm", {"sigma": 0.4}),
        ("beta", {"shape": 2.0}),
        ("weibull", {"shape": 2.0}),
    ]

    @pytest.mark.parametrize("family,params", NBUE_LAWS, ids=lambda x: str(x))
    def test_nbue_laws_inside(self, family, params):
        mp = single_communication(2, 3)
        b = throughput_bounds(mp, "overlap")
        from repro.core import StreamingSystem

        sys = StreamingSystem(mp, "overlap")
        sim = sys.simulate(
            n_datasets=60_000, law=family, law_params=params, seed=17
        )
        assert b.contains(sim.steady_state_throughput(), rel_slack=0.02)

    def test_non_nbue_law_can_escape(self):
        """A DFR law (gamma shape 0.25) dips below the exponential bound."""
        mp = single_communication(2, 3)
        b = throughput_bounds(mp, "overlap")
        from repro.core import StreamingSystem

        sys = StreamingSystem(mp, "overlap")
        sim = sys.simulate(
            n_datasets=60_000,
            law="gamma",
            law_params={"shape": 0.25},
            seed=17,
        )
        assert sim.steady_state_throughput() < b.lower * 0.98

    def test_hyperexponential_escapes(self):
        mp = single_communication(3, 4)
        b = throughput_bounds(mp, "overlap")
        from repro.core import StreamingSystem

        sys = StreamingSystem(mp, "overlap")
        sim = sys.simulate(
            n_datasets=60_000,
            law="hyperexponential",
            law_params={"cv2": 8.0},
            seed=23,
        )
        assert sim.steady_state_throughput() < b.lower * 0.98

    def test_erlang_interpolates(self):
        """Erlang-k sweeps from the exponential (k=1) to the constant."""
        mp = single_communication(2, 3)
        b = throughput_bounds(mp, "overlap")
        from repro.core import StreamingSystem

        sys = StreamingSystem(mp, "overlap")
        values = []
        for k in (1, 2, 8, 64):
            sim = sys.simulate(
                n_datasets=50_000, law="erlang", law_params={"k": k}, seed=5
            )
            values.append(sim.steady_state_throughput())
        assert values[0] == pytest.approx(b.lower, rel=0.03)
        assert values[-1] == pytest.approx(b.upper, rel=0.03)
        assert values == sorted(values)
