"""Tests for the (max,+) algebra and the cycle-ratio solvers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import StructuralError
from repro.maxplus import (
    NEG_INF,
    Arc,
    TokenGraph,
    max_cycle_ratio,
    max_cycle_ratio_brute_force,
    oplus,
    otimes,
)


class TestSemiring:
    def test_oplus_is_max(self):
        assert oplus(3.0, 5.0) == 5.0
        assert oplus(NEG_INF, 2.0) == 2.0

    def test_otimes_is_add(self):
        assert otimes(3.0, 5.0) == 8.0
        assert otimes(NEG_INF, 5.0) == NEG_INF

    def test_vectorized(self):
        a = np.array([1.0, NEG_INF])
        assert np.array_equal(oplus(a, 0.0), [1.0, 0.0])


class TestTokenGraph:
    def test_add_and_iterate(self):
        g = TokenGraph(3)
        g.add_arc(0, 1, weight=1.0, tokens=0)
        g.add_arc(1, 0, weight=2.0, tokens=1)
        assert g.n_arcs == 2
        assert [a.src for a in g] == [0, 1]

    def test_out_of_range_rejected(self):
        g = TokenGraph(2)
        with pytest.raises(StructuralError):
            g.add_arc(0, 5, weight=1.0, tokens=0)

    def test_negative_tokens_rejected(self):
        with pytest.raises(StructuralError):
            Arc(0, 1, 1.0, -1)

    def test_zero_token_cycle_detection(self):
        g = TokenGraph(2)
        g.add_arc(0, 1, weight=1.0, tokens=0)
        g.add_arc(1, 0, weight=1.0, tokens=0)
        assert g.has_zero_token_cycle()
        g2 = TokenGraph(2)
        g2.add_arc(0, 1, weight=1.0, tokens=0)
        g2.add_arc(1, 0, weight=1.0, tokens=1)
        assert not g2.has_zero_token_cycle()

    def test_zero_token_order(self):
        g = TokenGraph(4)
        g.add_arc(2, 0, weight=1.0, tokens=0)
        g.add_arc(0, 3, weight=1.0, tokens=0)
        g.add_arc(1, 3, weight=1.0, tokens=0)
        g.add_arc(3, 2, weight=1.0, tokens=1)  # marked: no constraint
        order = g.zero_token_order()
        assert sorted(order) == [0, 1, 2, 3]
        position = {v: i for i, v in enumerate(order)}
        assert all(position[a.src] < position[a.dst] for a in g if not a.tokens)
        g.add_arc(3, 2, weight=1.0, tokens=0)  # closes 2 -> 0 -> 3 -> 2
        assert g.zero_token_order() is None


def _simple_cycle_graph() -> TokenGraph:
    """Two nested cycles with known ratios 3.0 and 2.0."""
    g = TokenGraph(3)
    g.add_arc(0, 1, weight=2.0, tokens=1)
    g.add_arc(1, 0, weight=4.0, tokens=1)  # ratio (2+4)/2 = 3
    g.add_arc(1, 2, weight=1.0, tokens=0)
    g.add_arc(2, 1, weight=3.0, tokens=2)  # ratio (1+3)/2 = 2
    return g


class TestMaxCycleRatio:
    def test_simple(self):
        res = max_cycle_ratio(_simple_cycle_graph())
        assert res is not None
        assert res.ratio == pytest.approx(3.0)
        assert set(res.nodes) == {0, 1}

    def test_matches_brute_force(self):
        res = max_cycle_ratio(_simple_cycle_graph())
        oracle = max_cycle_ratio_brute_force(_simple_cycle_graph())
        assert res.ratio == pytest.approx(oracle.ratio)

    def test_acyclic_returns_none(self):
        g = TokenGraph(3)
        g.add_arc(0, 1, weight=1.0, tokens=1)
        g.add_arc(1, 2, weight=1.0, tokens=0)
        assert max_cycle_ratio(g) is None

    def test_zero_token_cycle_raises(self):
        g = TokenGraph(2)
        g.add_arc(0, 1, weight=1.0, tokens=0)
        g.add_arc(1, 0, weight=1.0, tokens=0)
        with pytest.raises(StructuralError):
            max_cycle_ratio(g)

    def test_self_loop(self):
        g = TokenGraph(1)
        g.add_arc(0, 0, weight=7.0, tokens=2)
        res = max_cycle_ratio(g)
        assert res.ratio == pytest.approx(3.5)

    def test_parallel_arcs(self):
        g = TokenGraph(2)
        g.add_arc(0, 1, weight=1.0, tokens=1)
        g.add_arc(0, 1, weight=9.0, tokens=1)  # heavier parallel arc
        g.add_arc(1, 0, weight=1.0, tokens=1)
        res = max_cycle_ratio(g)
        assert res.ratio == pytest.approx(5.0)

    def test_zero_weights(self):
        g = TokenGraph(2)
        g.add_arc(0, 1, weight=0.0, tokens=1)
        g.add_arc(1, 0, weight=0.0, tokens=1)
        res = max_cycle_ratio(g)
        assert res.ratio == pytest.approx(0.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_graphs_match_brute_force(self, seed):
        """Fuzz the solver against the exponential oracle on small graphs."""
        r = np.random.default_rng(seed)
        n = int(r.integers(2, 7))
        g = TokenGraph(n)
        # Ensure a Hamiltonian token cycle so the graph is live and cyclic.
        perm = r.permutation(n)
        for i in range(n):
            g.add_arc(
                int(perm[i]), int(perm[(i + 1) % n]),
                weight=float(r.uniform(0, 10)), tokens=1,
            )
        for _ in range(int(r.integers(1, 2 * n))):
            u, v = int(r.integers(n)), int(r.integers(n))
            g.add_arc(u, v, weight=float(r.uniform(0, 10)),
                      tokens=int(r.integers(1, 3)))
        res = max_cycle_ratio(g)
        oracle = max_cycle_ratio_brute_force(g)
        assert res is not None and oracle is not None
        assert res.ratio == pytest.approx(oracle.ratio, rel=1e-9)
