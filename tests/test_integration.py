"""Cross-module integration tests: every layer against every other.

The philosophy of this suite: the library ships *four* independent ways
to evaluate a system (symbolic decomposition, unrolled SCC analysis,
marking CTMC, and two unrelated simulators). Any disagreement beyond
sampling noise is a bug somewhere; these tests pit them against each
other on non-trivial systems.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import StreamingSystem
from repro.core import (
    overlap_throughput,
    strict_exponential_throughput,
    throughput_bounds,
    tpn_exponential_throughput_scc,
    tpn_throughput_classic,
    tpn_throughput_deterministic,
)
from repro.mapping.examples import example_a
from repro.petri import build_overlap_tpn, build_strict_tpn
from repro.sim.system_sim import simulate_system
from repro.sim.tpn_sim import simulate_tpn

from tests.conftest import make_mapping


class TestFourWayAgreementOverlap:
    """Symbolic == SCC CTMC == TPN DES == system DES, exponential Overlap."""

    @pytest.mark.parametrize(
        "teams",
        [
            [[0], [1]],
            [[0, 1], [2, 3, 4]],
            [[0], [1, 2], [3]],
            [[0, 1], [2, 3], [4]],
        ],
        ids=str,
    )
    def test_agreement(self, teams):
        # A content digest, unlike hash(), does not change with
        # PYTHONHASHSEED, so every run checks the same system.
        digest = hashlib.blake2b(str(teams).encode(), digest_size=8).digest()
        mp = make_mapping(teams, seed=int.from_bytes(digest, "big"))
        symbolic = overlap_throughput(mp, "exponential")
        tpn = build_overlap_tpn(mp)
        scc = tpn_exponential_throughput_scc(tpn, max_states=400_000)
        assert scc == pytest.approx(symbolic, rel=1e-9)
        sim = simulate_system(
            mp, "overlap", n_datasets=120_000, law="exponential", seed=3
        )
        assert sim.windowed_throughput(0.1, 0.45) == pytest.approx(
            symbolic, rel=0.04
        )


class TestStrictConsistency:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_theory_vs_two_simulators(self, seed):
        mp = make_mapping([[0], [1, 2]], seed=seed)
        rho = strict_exponential_throughput(mp, max_states=400_000)
        a = simulate_system(
            mp, "strict", n_datasets=80_000, law="exponential", seed=seed
        ).steady_state_throughput()
        b = simulate_tpn(
            build_strict_tpn(mp), n_datasets=40_000, law="exponential",
            seed=seed + 100,
        ).steady_state_throughput()
        assert a == pytest.approx(rho, rel=0.03)
        assert b == pytest.approx(rho, rel=0.03)

    def test_deterministic_strict_period(self):
        """Paper Section 4.2: Strict cycles mix resources across columns."""
        mp = example_a()
        tpn = build_strict_tpn(mp)
        rho_comp = tpn_throughput_deterministic(tpn)
        rho_classic = tpn_throughput_classic(tpn)
        # Example A's strict net is strongly connected: both agree.
        assert rho_comp == pytest.approx(rho_classic, rel=1e-9)


class TestModelOrdering:
    """Overlap dominates Strict; deterministic dominates exponential."""

    @pytest.mark.parametrize("seed", [4, 5, 6, 7])
    def test_full_ordering(self, seed):
        mp = make_mapping([[0], [1, 2]], seed=seed)
        o_det = overlap_throughput(mp, "deterministic", semantics="bottleneck")
        o_exp = overlap_throughput(mp, "exponential", semantics="bottleneck")
        s_det = tpn_throughput_deterministic(build_strict_tpn(mp))
        s_exp = strict_exponential_throughput(mp, max_states=400_000)
        assert s_exp <= s_det * (1 + 1e-9)
        assert o_exp <= o_det * (1 + 1e-9)
        assert s_det <= o_det * (1 + 1e-9)
        assert s_exp <= o_exp * (1 + 1e-9)


class TestBoundsEndToEnd:
    def test_erlang_sandwich_on_pipeline(self):
        """A full pipeline (not just one comm) honours Theorem 7."""
        mp = make_mapping([[0], [1, 2], [3, 4, 5]], seed=9)
        b = throughput_bounds(mp, "overlap")
        sim = StreamingSystem(mp, "overlap").simulate(
            n_datasets=100_000, law="erlang", law_params={"k": 3}, seed=11
        )
        assert b.contains(sim.windowed_throughput(0.1, 0.45), rel_slack=0.04)

    def test_example_a_bounds(self):
        b = throughput_bounds(example_a(), "overlap")
        assert 0 < b.lower <= b.upper


class TestProposition1EndToEnd:
    def test_paths_appear_in_simulation_order(self):
        """Data set n is served at stage i by team slot (n mod R_i)."""
        mp = make_mapping(
            [[0], [1, 2]], works=[1.0, 10.0], files=[1e-9],
            speeds=[1.0, 1.0, 10.0],
        )
        # P1 (slow, slot 0) serves even data sets, P2 (fast) odd ones: the
        # completion times must interleave accordingly: odd data sets (on
        # the 10x faster P2) finish earlier within each pair.
        sim = simulate_system(
            mp, "overlap", n_datasets=2000, law="deterministic", seed=0
        )
        # Per-branch rates: z1 = 2·(1/10) = 0.2 (slow P1); the fast P2
        # branch is capped by the stage-1 producer (z = 1), so
        # ρ = (0.2 + min(2, 1)) / 2 = 0.6.
        expected = 0.5 * (2 * 1.0 / 10.0 + 1.0)
        assert sim.windowed_throughput(0.1, 0.45) == pytest.approx(
            expected, rel=0.02
        )


class TestExampleCScale:
    def test_symbolic_methods_handle_huge_lcm(self):
        """Example C (m = 10395) is tractable symbolically only."""
        from repro.mapping.examples import example_c
        from repro.core import pattern_throughput_homogeneous

        mp = example_c(work=1.0, file_size=1.0)
        rho_det = overlap_throughput(mp, "deterministic")
        rho_exp = overlap_throughput(mp, "exponential")
        assert 0 < rho_exp <= rho_det
        # The bottleneck communication: 21→27 with g=3, pattern 7×9.
        # Inner z = 3·(7·9·λ/(7+9-1)) with λ = 1.
        z2 = 3 * pattern_throughput_homogeneous(7, 9, 1.0)
        # Other comms: 5→21 (g=1, 5×21), 27→11 (g=1, 27×11); cpu z = R_i.
        z1 = pattern_throughput_homogeneous(5, 21, 1.0)
        z3 = pattern_throughput_homogeneous(27, 11, 1.0)
        assert rho_exp == pytest.approx(min(5.0, z1, z2, z3, 11.0), rel=1e-9)
