"""Tests for the CTMC engine and the TPN → CTMC bridge (Theorem 2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConvergenceError, StructuralError
from repro.markov import CTMC, ctmc_from_tpn, tpn_throughput_exponential
from repro.petri import build_overlap_tpn, build_strict_tpn

from tests.conftest import make_mapping


class TestCTMC:
    def test_two_state_birth_death(self):
        """π = (μ, λ)/(λ+μ) for the 0↔1 chain."""
        lam, mu = 2.0, 3.0
        chain = CTMC(2, [0, 1], [1, 0], [lam, mu])
        pi = chain.stationary_distribution()
        assert pi[0] == pytest.approx(mu / (lam + mu))
        assert pi[1] == pytest.approx(lam / (lam + mu))

    def test_methods_agree(self):
        rng = np.random.default_rng(3)
        n = 12
        rows, cols, rates = [], [], []
        # Random strongly connected chain: a ring plus random extras.
        for i in range(n):
            rows.append(i)
            cols.append((i + 1) % n)
            rates.append(float(rng.uniform(0.5, 2.0)))
        for _ in range(20):
            i, j = rng.integers(n, size=2)
            if i != j:
                rows.append(int(i))
                cols.append(int(j))
                rates.append(float(rng.uniform(0.1, 1.0)))
        chain = CTMC(n, rows, cols, rates)
        direct = chain.stationary_distribution("direct")
        dense = chain.stationary_distribution("dense")
        assert np.allclose(direct, dense, atol=1e-8)
        assert np.array_equal(chain.stationary_distribution(), direct)
        with pytest.raises(ValueError, match="unknown method 'power'"):
            chain.stationary_distribution("power")

    def test_balance_equations_hold(self):
        chain = CTMC(3, [0, 1, 2, 0], [1, 2, 0, 2], [1.0, 2.0, 3.0, 0.5])
        pi = chain.stationary_distribution()
        q = chain.generator().toarray()
        assert np.allclose(pi @ q, 0.0, atol=1e-10)
        assert pi.sum() == pytest.approx(1.0)

    def test_duplicate_arcs_summed(self):
        a = CTMC(2, [0, 0, 1], [1, 1, 0], [1.0, 1.0, 2.0])
        b = CTMC(2, [0, 1], [1, 0], [2.0, 2.0])
        assert np.allclose(
            a.stationary_distribution(), b.stationary_distribution()
        )

    def test_transient_states_get_zero_mass(self):
        # 0 -> 1 <-> 2 : state 0 is transient.
        chain = CTMC(3, [0, 1, 2], [1, 2, 1], [1.0, 1.0, 1.0])
        pi = chain.stationary_distribution()
        assert pi[0] == 0.0
        assert pi[1] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.filterwarnings(
        "ignore::scipy.sparse.linalg.MatrixRankWarning"
    )
    def test_singular_system_raises(self):
        # Two closed classes, 0 <-> 1 and 2 <-> 3 (and a transient state
        # 4 feeding both): no unique stationary law. The LU does not
        # raise; it warns and fills NaN, which used to end in "produced a
        # zero vector".
        for chain in (
            CTMC(4, [0, 1, 2, 3], [1, 0, 3, 2], [1.0, 2.0, 1.0, 3.0]),
            CTMC(
                5, [4, 4, 0, 1, 2, 3], [0, 2, 1, 0, 3, 2],
                [1.0, 1.0, 1.0, 2.0, 1.0, 3.0],
            ),
        ):
            with pytest.raises(ConvergenceError, match="singular"):
                chain.stationary_distribution()

    def test_single_state(self):
        chain = CTMC(1, [], [], [])
        assert chain.stationary_distribution()[0] == 1.0

    def test_invalid_inputs(self):
        with pytest.raises(StructuralError):
            CTMC(0, [], [], [])
        with pytest.raises(StructuralError):
            CTMC(2, [0], [1], [-1.0])
        with pytest.raises(StructuralError):
            CTMC(2, [0, 1], [1], [1.0, 1.0])

    def test_flow(self):
        lam, mu = 2.0, 3.0
        chain = CTMC(2, [0, 1], [1, 0], [lam, mu])
        pi = chain.stationary_distribution()
        # Long-run rate of 0->1 jumps = π0·λ = flow with all weights.
        assert chain.flow(pi) == pytest.approx(2.0 * pi[0] * lam)


class TestTpnBridge:
    def test_single_processor_rate(self):
        """One stage on one processor: ρ = λ = 1/c (self-loop chain)."""
        mp = make_mapping([[0]], works=[2.0])
        tpn = build_overlap_tpn(mp)
        rho = tpn_throughput_exponential(tpn)
        assert rho == pytest.approx(0.5)

    def test_replicated_single_stage(self):
        """R identical processors: ρ = R·λ."""
        mp = make_mapping([[0, 1, 2]], works=[2.0])
        tpn = build_overlap_tpn(mp)
        rho = tpn_throughput_exponential(tpn)
        assert rho == pytest.approx(1.5)

    def test_strict_tandem_two_stages(self):
        """Strict 2-stage tandem: alternating cycle, ρ by direct analysis.

        The strict chain P0: comp(c) → send(d) → comp…, P1: recv(d) →
        comp(c') → recv…, with the transfer shared. The marking chain is
        small; compare against an independent hand-built CTMC.
        """
        mp = make_mapping([[0], [1]], works=[1.0, 2.0], files=[3.0])
        tpn = build_strict_tpn(mp)
        rho = tpn_throughput_exponential(tpn)
        # Hand-check: cycle comp0 -> comm -> comp1 where comp1 and comp0
        # can overlap (different processors) but comm is shared.
        # Validate against the event-graph simulator instead of
        # re-deriving.
        from repro.sim.tpn_sim import simulate_tpn

        sim = simulate_tpn(tpn, n_datasets=40_000, law="exponential", seed=9)
        assert rho == pytest.approx(sim.steady_state_throughput(), rel=0.03)

    def test_zero_mean_rejected(self):
        mp = make_mapping([[0], [1]], works=[0.0, 1.0], files=[1.0])
        tpn = build_strict_tpn(mp)
        with pytest.raises(StructuralError, match="positive mean"):
            tpn_throughput_exponential(tpn)

    def test_counted_subset(self):
        mp = make_mapping([[0], [1]], works=[1.0, 1.0], files=[1.0])
        tpn = build_strict_tpn(mp)
        # Counting the first column instead: same long-run rate (every
        # data set traverses every column exactly once).
        first_col = tpn.column_transitions(0)
        rho_first = tpn_throughput_exponential(tpn, counted=first_col)
        rho_last = tpn_throughput_exponential(tpn)
        assert rho_first == pytest.approx(rho_last, rel=1e-9)

    def test_ctmc_from_tpn_shapes(self):
        mp = make_mapping([[0], [1]], works=[1.0, 1.0], files=[1.0])
        tpn = build_strict_tpn(mp)
        chain, reach = ctmc_from_tpn(tpn)
        assert chain.n_states == reach.n_states
        assert reach.n_states >= 3

    def test_overlap_capacity_approaches_decomposition(self):
        """Finite-buffer CTMC → decomposition value as capacity grows.

        A symmetric tandem, so bottleneck and unbounded semantics coincide
        and the capacitated chain must converge to the decomposition value.
        """
        from repro.core import overlap_throughput

        mp = make_mapping([[0], [1]], works=[1.0, 1.0], files=[1.0])
        target = overlap_throughput(mp, "exponential")
        values = []
        for cap in (1, 2, 6):
            tpn = build_overlap_tpn(mp, buffer_capacity=cap)
            values.append(tpn_throughput_exponential(tpn, max_states=200_000))
        # Monotone increase, strictly below the unbounded value: a
        # balanced tandem converges only like 1 - O(1/B).
        assert values[0] < values[1] < values[2] < target

    def test_capacity_eight_is_past_four_fifths_of_decomposition(self):
        """The same tandem through ``exponential_throughput``: at B = 8
        the finite-buffer chain already gives more than 0.8 of the
        unbounded value (0.849 exactly), and stays below it."""
        from repro.core import exponential_throughput, overlap_throughput

        mp = make_mapping([[0], [1]], works=[1.0, 1.0], files=[1.0])
        target = overlap_throughput(mp, "exponential")
        values = [
            exponential_throughput(
                mp, "overlap", buffer_capacity=cap, max_states=400_000
            )
            for cap in (1, 2, 4, 8)
        ]
        assert values == sorted(values)
        assert 0.8 * target < values[-1] < target

    def test_capacitated_ctmc_matches_des(self):
        """The finite-buffer marking chain is exact: the event-graph
        simulator agrees."""
        from repro.sim.tpn_sim import simulate_tpn

        mp = make_mapping([[0], [1]], works=[1.0, 1.0], files=[1.0])
        tpn = build_overlap_tpn(mp, buffer_capacity=2)
        exact = tpn_throughput_exponential(tpn)
        sim = simulate_tpn(tpn, n_datasets=60_000, law="exponential", seed=8)
        assert sim.steady_state_throughput() == pytest.approx(exact, rel=0.03)
