"""Tests for the u×v pattern analysis (Theorems 3/4 machinery)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import (
    CommPattern,
    build_pattern_tpn,
    exponential_to_deterministic_ratio,
    pattern_enabling_count,
    pattern_state_count,
    pattern_throughput_deterministic,
    pattern_throughput_exponential,
    pattern_throughput_homogeneous,
)
from repro.exceptions import StructuralError
from repro.markov import tpn_throughput_exponential
from repro.petri import explore, is_live, validate
from repro.petri.analysis import is_strongly_connected


class TestCounts:
    @pytest.mark.parametrize(
        "u,v", [(1, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 5), (3, 8), (7, 9)]
    )
    def test_state_count_formula(self, u, v):
        """S(u,v) = C(u+v-1, u-1)·v (paper, proof of Theorem 3)."""
        expected = math.comb(u + v - 1, u - 1) * v
        assert pattern_state_count(u, v) == expected

    @pytest.mark.parametrize("u,v", [(1, 2), (2, 3), (3, 4), (2, 5)])
    def test_reachable_markings_match_formula(self, u, v):
        """The Young-diagram count is the *actual* reachable state count."""
        pattern = CommPattern.homogeneous(u, v, 1.0)
        tpn = build_pattern_tpn(pattern)
        reach = explore(tpn)
        assert reach.n_states == pattern_state_count(u, v)

    @pytest.mark.parametrize("u,v", [(1, 2), (2, 3), (3, 4)])
    def test_enabling_count(self, u, v):
        """S'(u,v) markings enable each fixed transition (Theorem 4)."""
        pattern = CommPattern.homogeneous(u, v, 1.0)
        tpn = build_pattern_tpn(pattern)
        reach = explore(tpn)
        for t in range(tpn.n_transitions):
            enabling = sum(
                1
                for moves in reach.arcs
                if any(tt == t for tt, _ in moves)
            )
            assert enabling == pattern_enabling_count(u, v)

    def test_sprime_relation(self):
        """S'(u,v) = S(u,v) / (u+v-1) (paper, proof of Theorem 4)."""
        for u, v in [(2, 3), (3, 4), (4, 5), (5, 6)]:
            assert pattern_enabling_count(u, v) * (u + v - 1) == pattern_state_count(
                u, v
            )

    def test_non_coprime_rejected(self):
        with pytest.raises(StructuralError):
            pattern_state_count(2, 4)

    def test_example_c_pattern(self):
        """Example C's second communication: 7×9 pattern."""
        assert pattern_state_count(7, 9) == math.comb(15, 6) * 9


class TestPatternNet:
    def test_structure(self):
        tpn = build_pattern_tpn(CommPattern.homogeneous(2, 3, 1.0))
        assert tpn.n_transitions == 6
        validate(tpn)
        assert is_live(tpn)
        assert is_strongly_connected(tpn)

    def test_tokens(self):
        tpn = build_pattern_tpn(CommPattern.homogeneous(3, 4, 1.0))
        assert int(tpn.initial_marking().sum()) == 3 + 4

    def test_heterogeneous_means_assigned(self):
        means = tuple(float(i + 1) for i in range(6))
        tpn = build_pattern_tpn(CommPattern(2, 3, means))
        assert tuple(t.mean_time for t in tpn.transitions) == means

    def test_pattern_validation(self):
        with pytest.raises(StructuralError):
            CommPattern(2, 3, (1.0,) * 5)  # wrong count
        with pytest.raises(StructuralError):
            CommPattern(2, 3, (1.0,) * 5 + (0.0,))  # non-positive
        with pytest.raises(StructuralError):
            CommPattern.homogeneous(2, 4, 1.0)  # not coprime


class TestHomogeneousThroughput:
    @pytest.mark.parametrize("u,v", [(1, 1), (1, 3), (2, 3), (3, 4), (4, 5)])
    def test_closed_form_matches_ctmc(self, u, v):
        """Theorem 4's formula equals the exact pattern CTMC value."""
        lam = 0.8
        closed = pattern_throughput_homogeneous(u, v, lam)
        tpn = build_pattern_tpn(CommPattern.homogeneous(u, v, 1.0 / lam))
        ctmc = tpn_throughput_exponential(
            tpn, counted=list(range(tpn.n_transitions))
        )
        assert closed == pytest.approx(ctmc, rel=1e-9)

    def test_formula_values(self):
        assert pattern_throughput_homogeneous(1, 1, 2.0) == pytest.approx(2.0)
        assert pattern_throughput_homogeneous(2, 3, 1.0) == pytest.approx(1.5)
        assert pattern_throughput_homogeneous(5, 7, 1.0) == pytest.approx(35 / 11)

    @pytest.mark.parametrize("u,v", [(2, 3), (3, 5), (4, 7)])
    def test_deterministic_is_min_uv(self, u, v):
        """Constant times: inner throughput = min(u,v)·λ (Section 6 remark)."""
        d = 2.0
        got = pattern_throughput_deterministic(CommPattern.homogeneous(u, v, d))
        assert got == pytest.approx(min(u, v) / d)

    @pytest.mark.parametrize("u,v", [(2, 3), (3, 4), (2, 7), (5, 6)])
    def test_fig15_ratio(self, u, v):
        """ρ_exp/ρ_det = max(u,v)/(u+v-1) ∈ (1/2, 1]."""
        lam = 1.0
        exp = pattern_throughput_homogeneous(u, v, lam)
        det = min(u, v) * lam
        ratio = exponential_to_deterministic_ratio(u, v)
        assert exp / det == pytest.approx(ratio)
        assert 0.5 < ratio <= 1.0

    def test_uniform_stationary_distribution(self):
        """Homogeneous rates ⇒ uniform stationary law (Theorem 4 proof)."""
        from repro.markov import ctmc_from_tpn

        tpn = build_pattern_tpn(CommPattern.homogeneous(2, 3, 1.0))
        chain, reach = ctmc_from_tpn(tpn)
        pi = chain.stationary_distribution()
        assert np.allclose(pi, 1.0 / reach.n_states, atol=1e-10)


class TestHeterogeneousThroughput:
    def test_dispatches_to_closed_form_when_homogeneous(self):
        p = CommPattern.homogeneous(2, 3, 0.5)
        assert pattern_throughput_exponential(p) == pytest.approx(
            pattern_throughput_homogeneous(2, 3, 2.0)
        )

    def test_heterogeneous_below_best_homogeneous(self):
        """Slower links can only hurt: ρ_het <= ρ_hom(fastest)."""
        means = (1.0, 1.0, 1.0, 1.0, 1.0, 4.0)
        het = pattern_throughput_exponential(CommPattern(2, 3, means))
        hom_fast = pattern_throughput_homogeneous(2, 3, 1.0)
        hom_slow = pattern_throughput_homogeneous(2, 3, 0.25)
        assert hom_slow < het < hom_fast

    def test_heterogeneous_matches_des(self):
        """Pattern CTMC against the event-graph simulator."""
        from repro.sim.tpn_sim import simulate_tpn

        rng = np.random.default_rng(4)
        means = tuple(rng.uniform(0.5, 2.0, 6).tolist())
        pattern = CommPattern(2, 3, means)
        exact = pattern_throughput_exponential(pattern)
        tpn = build_pattern_tpn(pattern)
        sim = simulate_tpn(tpn, n_datasets=60_000, law="exponential", seed=5)
        assert sim.steady_state_throughput() == pytest.approx(exact, rel=0.03)

    def test_deterministic_heterogeneous_mixed_cycles(self):
        """The pattern MCR can exceed every pure port cycle.

        This is the single-communication incarnation of "no critical
        resource": a cycle mixing sender and receiver chains dominates.
        """
        # Construct a 2x3 pattern with adversarial alternating times.
        means = (10.0, 1.0, 1.0, 1.0, 1.0, 10.0)
        pattern = CommPattern(2, 3, means)
        rho = pattern_throughput_deterministic(pattern)
        # Port-cycle-only bound:
        sender = [sum(means[r] for r in range(6) if r % 2 == s) for s in range(2)]
        receiver = [sum(means[r] for r in range(6) if r % 3 == t) for t in range(3)]
        port_period = max(sender + receiver)
        port_bound = 6 / port_period
        assert rho <= port_bound + 1e-12
