"""Tests for the static throughput evaluators (paper Section 4)."""

from __future__ import annotations

import pytest

from repro.core import (
    deterministic_throughput,
    overlap_component_dag,
    overlap_throughput,
    round_period,
    tpn_throughput_deterministic,
)
from repro.mapping import max_cycle_time
from repro.mapping.examples import example_a, single_communication
from repro.maxplus.cycle import max_cycle_ratio_brute_force
from repro.petri import build_overlap_tpn, build_strict_tpn

from tests.conftest import make_mapping


class TestUnreplicatedChains:
    """Without replication the critical resource dictates everything."""

    def test_overlap_is_max_resource(self):
        mp = make_mapping([[0], [1], [2]], works=[2.0, 5.0, 3.0], files=[1.0, 1.0])
        rho = deterministic_throughput(mp, "overlap")
        assert rho == pytest.approx(1.0 / 5.0)

    def test_overlap_comm_bound(self):
        mp = make_mapping([[0], [1]], works=[1.0, 1.0], files=[7.0])
        assert deterministic_throughput(mp, "overlap") == pytest.approx(1.0 / 7.0)

    def test_strict_sums_cycle(self):
        """Strict cycle-time of the middle processor: in + comp + out."""
        mp = make_mapping([[0], [1], [2]], works=[1.0, 2.0, 1.0], files=[3.0, 4.0])
        rho = deterministic_throughput(mp, "strict")
        assert rho == pytest.approx(1.0 / (3.0 + 2.0 + 4.0))

    def test_matches_mct_without_replication(self):
        for seed in range(5):
            mp = make_mapping([[0], [1], [2]], seed=seed)
            for model in ("overlap", "strict"):
                rho = deterministic_throughput(mp, model)
                mct = max_cycle_time(mp, model)
                assert rho == pytest.approx(1.0 / mct, rel=1e-9)


class TestReplication:
    def test_replicated_stage_scales(self):
        """Three identical processors triple the stage capacity."""
        mp = make_mapping([[0, 1, 2]], works=[3.0])
        assert deterministic_throughput(mp, "overlap") == pytest.approx(1.0)

    def test_single_comm_det(self):
        """u×v homogeneous communication: ρ = min(u,v)·λ (Overlap)."""
        for u, v in [(2, 3), (3, 4), (4, 5)]:
            mp = single_communication(u, v, comm_time=2.0)
            assert deterministic_throughput(mp, "overlap") == pytest.approx(
                min(u, v) / 2.0, rel=1e-6
            )

    def test_bottleneck_semantics_paced_by_slowest(self):
        mp = make_mapping(
            [[0], [1, 2]],
            works=[0.001, 2.0],
            files=[0.001],
            speeds=[1000.0, 4.0, 1.0],
        )
        rho = deterministic_throughput(mp, "overlap")
        # Data set n follows row n mod 2: everything is paced by P2
        # (z = 2·(1/2) = 1), although P1 alone could sustain z = 4.
        assert rho == pytest.approx(1.0, rel=1e-3)


class TestTpnEvaluators:
    def test_overlap_tpn_matches_symbolic(self):
        """Unrolled-net evaluation == symbolic decomposition."""
        for seed in range(6):
            mp = make_mapping([[0], [1, 2], [3, 4, 5, 6]], seed=seed)
            tpn = build_overlap_tpn(mp)
            assert tpn_throughput_deterministic(tpn) == pytest.approx(
                overlap_throughput(mp, "deterministic"), rel=1e-9
            )

    def test_classic_equals_min_component(self):
        """The symbolic min component is m / P by cycle enumeration."""
        for seed in range(4):
            mp = make_mapping([[0], [1, 2], [3, 4, 5, 6]], seed=seed)
            tpn = build_overlap_tpn(mp)
            oracle = max_cycle_ratio_brute_force(tpn.to_token_graph())
            assert tpn.n_rows / oracle.ratio == pytest.approx(
                overlap_throughput(mp, "deterministic"), rel=1e-9
            )

    def test_strict_strongly_connected_classic(self):
        """On a strongly connected Strict net the kernel's m / P matches
        the critical cycle found by enumerating every simple cycle."""
        mp = make_mapping([[0], [1, 2], [3]], seed=3)
        tpn = build_strict_tpn(mp)
        oracle = max_cycle_ratio_brute_force(tpn.to_token_graph())
        assert tpn_throughput_deterministic(tpn) == pytest.approx(
            tpn.n_rows / oracle.ratio, rel=1e-9
        )

    def test_round_period_scales_with_rows(self):
        mp = make_mapping([[0, 1], [2, 3, 4]])
        tpn = build_overlap_tpn(mp)
        p = round_period(tpn)
        assert tpn.n_rows / p == pytest.approx(
            overlap_throughput(mp, "deterministic")
        )

    def test_strict_slower_than_overlap(self):
        """Serialization can only hurt: ρ_strict <= ρ_overlap."""
        for seed in range(5):
            mp = make_mapping([[0], [1, 2], [3]], seed=seed)
            s = deterministic_throughput(mp, "strict")
            o = deterministic_throughput(mp, "overlap")
            assert s <= o * (1 + 1e-9)


class TestAgainstSimulation:
    @pytest.mark.parametrize("seed", range(4))
    def test_overlap_unbounded_vs_system_sim(self, seed):
        mp = make_mapping([[0], [1, 2], [3, 4, 5]], seed=seed)
        from repro.sim.system_sim import simulate_system

        sim = simulate_system(
            mp, "overlap", n_datasets=60_000, law="deterministic", seed=1
        )
        assert sim.windowed_throughput(0.1, 0.45) == pytest.approx(
            deterministic_throughput(mp, "overlap"), rel=0.01
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_overlap_bottleneck_vs_tpn_sim(self, seed):
        mp = make_mapping([[0], [1, 2], [3, 4, 5]], seed=seed)
        from repro.sim.tpn_sim import simulate_tpn

        tpn = build_overlap_tpn(mp)
        sim = simulate_tpn(tpn, n_datasets=20_000, law="deterministic", seed=1)
        assert sim.steady_state_throughput() == pytest.approx(
            deterministic_throughput(mp, "overlap"), rel=0.01
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_strict_vs_both_sims(self, seed):
        mp = make_mapping([[0], [1, 2], [3]], seed=seed)
        from repro.sim.system_sim import simulate_system
        from repro.sim.tpn_sim import simulate_tpn

        rho = deterministic_throughput(mp, "strict")
        s1 = simulate_system(
            mp, "strict", n_datasets=30_000, law="deterministic", seed=2
        )
        s2 = simulate_tpn(
            build_strict_tpn(mp), n_datasets=20_000, law="deterministic", seed=2
        )
        assert s1.steady_state_throughput() == pytest.approx(rho, rel=0.01)
        assert s2.steady_state_throughput() == pytest.approx(rho, rel=0.01)


class TestExampleA:
    def test_overlap_equals_simulation(self):
        mp = example_a()
        rho = deterministic_throughput(mp, "overlap")
        from repro.sim.system_sim import simulate_system

        sim = simulate_system(
            mp, "overlap", n_datasets=60_000, law="deterministic", seed=3
        )
        assert sim.windowed_throughput(0.1, 0.45) == pytest.approx(rho, rel=0.01)

    def test_strict_has_no_critical_resource(self):
        """Example A's Strict period exceeds every resource cycle-time.

        The paper reports P = 230.7 > Mct = 215.8 on its (unrecoverable)
        numeric labels; the fixture values reproduce the qualitative
        phenomenon: the Strict critical cycle mixes resources, so the
        achieved throughput is strictly below the Mct bound.
        """
        mp = example_a()
        rho = deterministic_throughput(mp, "strict")
        mct = max_cycle_time(mp, "strict")
        gap = (1.0 / mct - rho) * mct
        assert gap > 0.005  # strictly no critical resource

    def test_overlap_has_critical_resource(self):
        """Same fixture, Overlap model: the Mct bound is tight (Table 1)."""
        mp = example_a()
        rho = deterministic_throughput(mp, "overlap")
        mct = max_cycle_time(mp, "overlap")
        assert rho == pytest.approx(1.0 / mct, rel=1e-6)

    def test_dag_diagnostics(self):
        dag = overlap_component_dag(example_a(), "deterministic")
        kinds = {c.kind for c in dag.components}
        assert kinds == {"cpu", "comm"}
        assert dag.throughput > 0
        assert dag.bottleneck().inner_z == min(c.inner_z for c in dag.components)
