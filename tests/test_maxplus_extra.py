"""Tests for the Howard cycle-ratio kernel and the dater recursion."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import StructuralError
from repro.maxplus import (
    TokenGraph,
    dater_evolution,
    dater_throughput,
    max_cycle_ratio,
    max_cycle_ratio_brute_force,
)
from repro.maxplus.dater import sample_times
from repro.petri import build_overlap_tpn, build_strict_tpn

from tests.conftest import make_mapping


def assert_matches_oracle(g: TokenGraph) -> float:
    """The kernel's ratio, checked against brute-force enumeration.

    Both sum the arcs of the critical cycle, in different orders, so they
    agree up to rounding.
    """
    res = max_cycle_ratio(g)
    oracle = max_cycle_ratio_brute_force(g)
    assert res is not None and oracle is not None
    assert res.ratio == pytest.approx(oracle.ratio, rel=1e-9)
    return res.ratio


class TestHoward:
    def test_simple_two_cycles(self):
        g = TokenGraph(3)
        g.add_arc(0, 1, weight=2.0, tokens=1)
        g.add_arc(1, 0, weight=4.0, tokens=1)
        g.add_arc(1, 2, weight=1.0, tokens=0)
        g.add_arc(2, 1, weight=3.0, tokens=2)
        assert assert_matches_oracle(g) == pytest.approx(3.0)

    def test_acyclic_returns_none(self):
        g = TokenGraph(2)
        g.add_arc(0, 1, weight=1.0, tokens=1)
        assert max_cycle_ratio(g) is None
        assert max_cycle_ratio_brute_force(g) is None

    def test_self_loop(self):
        g = TokenGraph(1)
        g.add_arc(0, 0, weight=6.0, tokens=3)
        assert assert_matches_oracle(g) == pytest.approx(2.0)

    def test_zero_token_cycle_raises(self):
        g = TokenGraph(2)
        g.add_arc(0, 1, weight=1.0, tokens=0)
        g.add_arc(1, 0, weight=1.0, tokens=0)
        with pytest.raises(StructuralError):
            max_cycle_ratio(g)

    @pytest.mark.parametrize("seed", range(25))
    def test_agrees_with_cycle_iteration(self, seed):
        """Random live graphs: Howard against iterating over every cycle."""
        r = np.random.default_rng(seed)
        n = int(r.integers(2, 9))
        g = TokenGraph(n)
        perm = r.permutation(n)
        for i in range(n):
            g.add_arc(
                int(perm[i]), int(perm[(i + 1) % n]),
                weight=float(r.uniform(0, 10)), tokens=int(r.integers(1, 3)),
            )
        for _ in range(int(r.integers(0, 3 * n))):
            g.add_arc(
                int(r.integers(n)), int(r.integers(n)),
                weight=float(r.uniform(0, 10)), tokens=int(r.integers(1, 4)),
            )
        assert_matches_oracle(g)

    def test_on_paper_nets(self):
        """Real overlap/strict nets."""
        for seed in range(4):
            mp = make_mapping([[0], [1, 2], [3]], seed=seed)
            for build in (build_overlap_tpn, build_strict_tpn):
                assert_matches_oracle(build(mp).to_token_graph())


class TestDater:
    def test_single_transition_cycle(self):
        mp = make_mapping([[0]], works=[2.0])
        tpn = build_overlap_tpn(mp)
        d = dater_evolution(tpn, 5)
        assert np.allclose(d[0], [2.0, 4.0, 6.0, 8.0, 10.0])

    def test_deterministic_throughput_matches_mcr(self):
        """lim k / D(k) equals the critical-cycle throughput."""
        from repro.core import tpn_throughput_deterministic

        for seed in range(3):
            mp = make_mapping([[0], [1, 2]], seed=seed)
            tpn = build_strict_tpn(mp)
            rho = tpn_throughput_deterministic(tpn)
            est = dater_throughput(tpn, 400)
            assert est == pytest.approx(rho, rel=0.02)

    def test_deterministic_matches_des_exactly(self):
        """Constant durations → the DES and the dater agree event by event."""
        from repro.sim.tpn_sim import simulate_tpn

        mp = make_mapping([[0], [1]], works=[1.0, 2.0], files=[1.5])
        tpn = build_strict_tpn(mp)
        n = 40
        d = dater_evolution(tpn, n)
        last = tpn.last_column_transitions()
        completions = np.sort(d[last, :].ravel())
        sim = simulate_tpn(
            tpn, n_datasets=len(completions), law="deterministic",
            seed=0, throttle=None,
        )
        assert np.allclose(sim.completion_times, completions, atol=1e-9)

    def test_exponential_dater_matches_theory(self):
        """Stochastic dater estimate ≈ exact CTMC value (Strict)."""
        from repro.core import strict_exponential_throughput
        from repro.distributions import Exponential

        mp = make_mapping([[0], [1]], works=[1.0, 2.0], files=[1.5])
        tpn = build_strict_tpn(mp)
        rho = strict_exponential_throughput(mp)
        times = sample_times(
            tpn, 20_000, lambda mean: Exponential(mean),
            np.random.default_rng(3),
        )
        est = dater_throughput(tpn, 20_000, times)
        assert est == pytest.approx(rho, rel=0.03)

    def test_monotonicity_in_times(self):
        """Theorem 5's engine: larger durations → later firings, pointwise."""
        mp = make_mapping([[0], [1, 2]], seed=2)
        tpn = build_overlap_tpn(mp)
        rng = np.random.default_rng(0)
        base = np.abs(rng.normal(1.0, 0.3, (tpn.n_transitions, 60)))
        bigger = base * rng.uniform(1.0, 1.5, size=base.shape)
        d1 = dater_evolution(tpn, 60, base)
        d2 = dater_evolution(tpn, 60, bigger)
        assert (d2 >= d1 - 1e-12).all()

    def test_input_validation(self):
        mp = make_mapping([[0]])
        tpn = build_overlap_tpn(mp)
        with pytest.raises(ValueError):
            dater_evolution(tpn, 0)
        with pytest.raises(StructuralError):
            dater_evolution(tpn, 3, np.ones((99, 3)))
