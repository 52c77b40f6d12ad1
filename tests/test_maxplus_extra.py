"""Tests for the Howard cycle-ratio kernel and the dater recursion."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import StructuralError
from repro.maxplus import (
    TokenGraph,
    dater_evolution,
    max_cycle_ratio,
    max_cycle_ratio_brute_force,
)
from repro.petri import build_overlap_tpn, build_strict_tpn
from repro.sim import simulate_system, simulate_tpn

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

    def test_dead_net_rejected(self):
        from repro.petri.net import TimedEventGraph
        from repro.types import PlaceKind, TransitionKind

        net = TimedEventGraph(n_rows=1, n_columns=2)
        t0 = net.add_transition(TransitionKind.COMPUTE, 0, 0, 0, ("cpu", 0), 1.0)
        t1 = net.add_transition(TransitionKind.COMPUTE, 1, 0, 1, ("cpu", 1), 1.0)
        net.add_place(t0, t1, 0, PlaceKind.FLOW)
        net.add_place(t1, t0, 0, PlaceKind.FLOW)
        with pytest.raises(StructuralError, match="not live"):
            dater_evolution(net, 3)

    def test_deterministic_throughput_matches_mcr(self):
        """lim k / D(k) equals the critical-cycle throughput."""
        from repro.core import tpn_throughput_deterministic

        for seed in range(3):
            mp = make_mapping([[0], [1, 2]], seed=seed)
            tpn = build_strict_tpn(mp)
            rho = tpn_throughput_deterministic(tpn)
            est = simulate_tpn(
                tpn, n_datasets=400 * tpn.n_rows, law="deterministic"
            ).steady_state_throughput()
            assert est == pytest.approx(rho, rel=0.02)

    def test_deterministic_matches_des_exactly(self):
        """Constant durations → the dater of the Strict net and the
        system simulator's recurrences complete every data set at the
        same instant: 4.5 + 3.5·k (send 1.5 then compute 2 per period)."""
        mp = make_mapping([[0], [1]], works=[1.0, 2.0], files=[1.5])
        tpn = build_strict_tpn(mp)
        n = 40
        sim = simulate_tpn(tpn, n_datasets=n, law="deterministic")
        direct = simulate_system(mp, "strict", n_datasets=n)
        assert np.array_equal(sim.completion_times, direct.completion_times)
        assert np.array_equal(sim.completion_times, 4.5 + 3.5 * np.arange(n))

    def test_paper_system_matches_symbolic(self):
        """The Fig. 10 system's Overlap net: a positive critical-cycle
        ratio, and the dater (unbounded semantics) within 5% of the
        symbolic decomposition."""
        from repro.core import overlap_throughput
        from repro.experiments.fig10 import paper_system

        mp = paper_system()
        tpn = build_overlap_tpn(mp)
        assert max_cycle_ratio(tpn.to_token_graph()).ratio > 0
        est = simulate_tpn(
            tpn, n_datasets=50 * tpn.n_rows, law="deterministic"
        ).steady_state_throughput()
        assert est == pytest.approx(
            overlap_throughput(mp, "deterministic"), rel=0.05
        )

    def test_exponential_dater_matches_theory(self):
        """Dater estimate on sampled durations ≈ exact CTMC value (Strict)."""
        from repro.core import strict_exponential_throughput
        from repro.distributions import Exponential

        mp = make_mapping([[0], [1]], works=[1.0, 2.0], files=[1.5])
        tpn = build_strict_tpn(mp)
        rho = strict_exponential_throughput(mp)
        est = simulate_tpn(
            tpn, n_datasets=20_000, law=lambda mean: Exponential(mean),
            rng=np.random.default_rng(3),
        ).steady_state_throughput()
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

    @pytest.mark.parametrize("fraction", [-0.5, 1.0])
    def test_warmup_fraction_outside_unit_interval_raises(self, fraction):
        # On this net, whose rate is 2.0, a share of -0.5 would index
        # the completions from the end (3.0 from both estimators), and
        # 1.0 would keep no completion (NaN from the coupling).
        from repro.core.comparison import coupled_throughputs
        from repro.mapping.examples import single_communication

        tpn = build_overlap_tpn(single_communication(2, 3, comm_time=1.0))
        sim = simulate_tpn(tpn, n_datasets=100 * tpn.n_rows, law="deterministic")
        with pytest.raises(ValueError, match="warmup_fraction"):
            sim.steady_state_throughput(warmup_fraction=fraction)
        with pytest.raises(ValueError, match="warmup_fraction"):
            coupled_throughputs(
                tpn, {"det": "deterministic"}, n_firings=100,
                warmup_fraction=fraction,
            )
