"""Tests for the exponential-case evaluators (paper Section 5)."""

from __future__ import annotations

import pytest

from repro.core import (
    exponential_throughput,
    overlap_exponential_throughput,
    overlap_throughput,
    pattern_throughput_homogeneous,
    strict_exponential_throughput,
    tpn_exponential_throughput_scc,
)
from repro.evaluate import StructureCache, evaluate
from repro.exceptions import UnsupportedModelError
from repro.mapping import max_cycle_time
from repro.mapping.examples import single_communication
from repro.petri import build_overlap_tpn, build_strict_tpn, is_strongly_connected

from tests.conftest import make_mapping


class TestOverlapDecomposition:
    def test_single_processor(self):
        mp = make_mapping([[0]], works=[2.0])
        assert overlap_exponential_throughput(mp) == pytest.approx(0.5)

    def test_replicated_stage_sums_rates(self):
        mp = make_mapping([[0, 1, 2]], works=[2.0])
        assert overlap_exponential_throughput(mp) == pytest.approx(1.5)

    @pytest.mark.parametrize("u,v", [(1, 2), (2, 3), (3, 4), (4, 5)])
    def test_single_comm_homogeneous(self, u, v):
        """Theorem 4 end to end: ρ = uvλ/(u+v-1)."""
        mp = single_communication(u, v, comm_time=1.0)
        assert overlap_exponential_throughput(mp) == pytest.approx(
            pattern_throughput_homogeneous(u, v, 1.0), rel=1e-6
        )

    def test_exponential_below_deterministic(self):
        """Theorem 7's two extreme systems, ordered."""
        for seed in range(6):
            mp = make_mapping([[0], [1, 2], [3, 4, 5]], seed=seed)
            exp = overlap_throughput(mp, "exponential")
            det = overlap_throughput(mp, "deterministic")
            assert exp <= det * (1 + 1e-9)

    def test_unknown_mode(self):
        mp = make_mapping([[0]])
        with pytest.raises(UnsupportedModelError):
            overlap_throughput(mp, "poisson")


class TestSccCrossValidation:
    """The symbolic pattern quotient vs the exact unrolled SCC chains.

    These tests validate the paper's "component = c copies of one
    pattern" reduction: the quotient pattern's per-row rate must equal the
    per-transition rate of the full c-copy component.
    """

    @pytest.mark.parametrize("seed", range(4))
    def test_c_copies_quotient_exact(self, seed):
        # R = (1, 2, 4): the first communication has c = 2 copies.
        mp = make_mapping([[0], [1, 2], [3, 4, 5, 6]], seed=seed)
        tpn = build_overlap_tpn(mp)
        scc = tpn_exponential_throughput_scc(tpn, max_states=400_000)
        sym = overlap_exponential_throughput(mp)
        assert scc == pytest.approx(sym, rel=1e-9)

    def test_heterogeneous_single_comm(self):
        mp = make_mapping([[0, 1], [2, 3, 4]], works=[1e-3, 1e-3], seed=None)
        # Heterogenize the links through the platform seed variant:
        mp = make_mapping([[0, 1], [2, 3, 4]], works=[1e-3, 1e-3], seed=11)
        tpn = build_overlap_tpn(mp)
        scc = tpn_exponential_throughput_scc(tpn)
        sym = overlap_exponential_throughput(mp)
        assert scc == pytest.approx(sym, rel=1e-9)

    def test_three_replicated_stages(self):
        mp = make_mapping([[0, 1], [2, 3, 4], [5, 6]], seed=21)
        tpn = build_overlap_tpn(mp)
        scc = tpn_exponential_throughput_scc(tpn, max_states=400_000)
        sym = overlap_exponential_throughput(mp)
        assert scc == pytest.approx(sym, rel=1e-9)


class TestStrictFullChain:
    def test_two_stage_tandem_vs_des(self):
        mp = make_mapping([[0], [1]], works=[1.0, 2.0], files=[1.5], seed=None)
        rho = strict_exponential_throughput(mp)
        from repro.sim.system_sim import simulate_system

        sim = simulate_system(
            mp, "strict", n_datasets=150_000, law="exponential", seed=6
        )
        assert rho == pytest.approx(sim.steady_state_throughput(), rel=0.02)

    def test_replicated_strict_vs_des(self):
        mp = make_mapping([[0], [1, 2]], works=[1.0, 2.0], files=[0.5])
        rho = strict_exponential_throughput(mp, max_states=400_000)
        from repro.sim.system_sim import simulate_system

        sim = simulate_system(
            mp, "strict", n_datasets=150_000, law="exponential", seed=7
        )
        assert rho == pytest.approx(sim.steady_state_throughput(), rel=0.02)

    def test_strict_below_overlap(self):
        mp = make_mapping([[0], [1]], works=[1.0, 1.0], files=[1.0])
        s = strict_exponential_throughput(mp)
        o = overlap_exponential_throughput(mp)
        assert s < o


class TestStrictSplit:
    """A Strict net with ``g = gcd(R) > 1`` splits into ``g`` row classes;
    Theorem 2 is solved per class and the slowest class paces every row."""

    def test_split_matches_scc_oracle_and_simulation(self):
        mp = make_mapping([[0, 1], [2, 3]], seed=0)
        assert not is_strongly_connected(build_strict_tpn(mp))
        rho = evaluate(mp, solver="exponential", model="strict")
        oracle = tpn_exponential_throughput_scc(build_strict_tpn(mp))
        assert rho == pytest.approx(oracle, rel=1e-9)
        # The deterministic m / P, here equal to 1 / Mct (0.51424), caps
        # it; the whole net's chain (0.60574) sums the two rows' rates.
        m_over_p = evaluate(mp, solver="deterministic", model="strict")
        assert m_over_p == pytest.approx(1.0 / max_cycle_time(mp, "strict"))
        assert rho <= m_over_p * (1 + 1e-9)
        from repro.sim.system_sim import simulate_system

        # n / C_n over 60 000 data sets read -0.65% to +0.48% of the
        # split value on seeds 1-3; the whole net's chain is 30% above.
        for seed in (1, 2, 3):
            sim = simulate_system(
                mp, "strict", n_datasets=60_000, law="exponential", seed=seed
            )
            assert sim.throughput == pytest.approx(rho, rel=0.015)

    def test_classes_share_one_net_and_exploration(self):
        mp = single_communication(3, 3, comm_time=1.0)
        cache = StructureCache()
        rho = evaluate(mp, solver="exponential", model="strict", cache=cache)
        stats = cache.stats()
        assert (stats["nets"], stats["reachability"]) == (1, 1)
        assert rho == pytest.approx(
            tpn_exponential_throughput_scc(build_strict_tpn(mp)), rel=1e-9
        )

    def test_buffer_capacity_rejected(self):
        mp = make_mapping([[0], [1, 2]])
        with pytest.raises(UnsupportedModelError, match="buffer_capacity"):
            exponential_throughput(mp, "strict", buffer_capacity=1)
        with pytest.raises(UnsupportedModelError, match="buffer_capacity"):
            evaluate(mp, solver="exponential", model="strict", buffer_capacity=1)


class TestFrontDoor:
    def test_auto_dispatch(self):
        mp = make_mapping([[0], [1]], works=[1.0, 1.0], files=[1.0])
        assert exponential_throughput(mp, "overlap") == pytest.approx(
            overlap_exponential_throughput(mp)
        )
        assert exponential_throughput(mp, "strict") == pytest.approx(
            strict_exponential_throughput(mp)
        )

    def test_full_with_capacity_below_unbounded(self):
        mp = make_mapping([[0], [1]])
        capped = exponential_throughput(mp, "overlap", buffer_capacity=2)
        unbounded = exponential_throughput(mp, "overlap")
        assert capped <= unbounded * (1 + 1e-9)

    def test_scc_method(self):
        mp = make_mapping([[0], [1, 2]])
        scc = tpn_exponential_throughput_scc(build_overlap_tpn(mp))
        assert scc == pytest.approx(
            exponential_throughput(mp, "overlap"), rel=1e-9
        )


class TestAgainstSimulation:
    @pytest.mark.parametrize("seed", range(3))
    def test_overlap_vs_system_sim(self, seed):
        mp = make_mapping([[0], [1, 2], [3, 4, 5]], seed=seed)
        rho = overlap_exponential_throughput(mp)
        from repro.sim.system_sim import simulate_system

        sim = simulate_system(
            mp, "overlap", n_datasets=120_000, law="exponential", seed=seed + 50
        )
        assert sim.windowed_throughput(0.1, 0.45) == pytest.approx(rho, rel=0.03)

    def test_example_c_second_comm_inner_throughput(self):
        """Example C's 7×9 pattern: closed form sanity at scale."""
        lam = 1.0
        inner = pattern_throughput_homogeneous(7, 9, lam)
        assert inner == pytest.approx(63.0 / 15.0)
