"""Hypothesis property-based tests on the core structures and invariants."""

from __future__ import annotations

import itertools
import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import (
    overlap_exponential_throughput,
    overlap_throughput,
    pattern_enabling_count,
    pattern_state_count,
    pattern_throughput_homogeneous,
    throughput_bounds,
    tpn_exponential_throughput_scc,
)
from repro.core.critical import analyze_critical_resource
from repro.core.pattern import CommPattern, build_pattern_tpn
from repro.distributions import make_distribution
from repro.evaluate import evaluate
from repro.exceptions import StateSpaceLimitError, StructuralError
from repro.mapping.roundrobin import all_paths, lcm_all
from repro.maxplus import TokenGraph, max_cycle_ratio, max_cycle_ratio_brute_force
from repro.petri import build_overlap_tpn, build_strict_tpn, is_feed_forward, is_live
from repro.sim import ReplicationSpec, replication_values
from repro.sim.sampling import LawSpec

from tests.conftest import make_mapping

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
coprime_sides = st.tuples(
    st.integers(1, 6), st.integers(1, 6)
).filter(lambda t: math.gcd(*t) == 1)

replications = st.lists(st.integers(1, 4), min_size=1, max_size=4).filter(
    lambda r: lcm_all(r) <= 24
)

short_replications = st.lists(
    st.integers(1, 4), min_size=1, max_size=3
).filter(lambda r: lcm_all(r) <= 12)


@st.composite
def token_graphs(draw):
    """Small token graphs with everything the kernel must handle.

    Nodes fall into up to three blocks, and an arc between two blocks
    always points to the later one, so the SCCs split along the blocks
    and the zero-token arcs between blocks lie on no cycle. Arcs are
    drawn with repetition, which gives parallel arcs and self-loops;
    sparse draws leave sources, sinks and acyclic graphs. Whole-number
    weights make ties between cycles common.
    """
    n = draw(st.integers(1, 6))
    block = sorted(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    weights = st.one_of(
        st.integers(0, 4).map(float),
        st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
    )
    arcs = draw(st.lists(
        st.tuples(
            st.integers(0, n - 1), st.integers(0, n - 1),
            weights, st.sampled_from([0, 1, 1, 2, 3]),
        ),
        max_size=3 * n,
    ))
    g = TokenGraph(n)
    for u, v, w, t in arcs:
        if block[u] > block[v]:
            u, v = v, u
        g.add_arc(u, v, weight=w, tokens=t)
    return g


def mapping_from_replication(reps: list[int], seed: int | None = None):
    teams, k = [], 0
    for r in reps:
        teams.append(list(range(k, k + r)))
        k += r
    return make_mapping(teams, seed=seed)


# ----------------------------------------------------------------------
# Round-robin structure (Proposition 1)
# ----------------------------------------------------------------------
class TestRoundRobinProperties:
    @given(replications)
    def test_path_count_is_lcm(self, reps):
        teams = []
        k = 0
        for r in reps:
            teams.append(list(range(k, k + r)))
            k += r
        paths = all_paths(teams)
        assert len(paths) == lcm_all(reps)
        assert len(set(paths)) == len(paths)

    @given(replications)
    def test_each_processor_serves_fair_share(self, reps):
        """Round-robin fairness: processor p of stage i serves m/R_i rows."""
        mp = mapping_from_replication(reps)
        m = mp.n_rows
        for i, team in enumerate(mp.teams):
            for p in team:
                assert len(mp.rows_of(i, p)) == m // len(team)


# ----------------------------------------------------------------------
# Pattern combinatorics (Theorems 3/4)
# ----------------------------------------------------------------------
class TestPatternProperties:
    @given(coprime_sides)
    def test_state_count_symmetry(self, sides):
        u, v = sides
        assert pattern_state_count(u, v) == pattern_state_count(v, u)

    @given(coprime_sides)
    def test_enabling_fraction(self, sides):
        u, v = sides
        s, sp = pattern_state_count(u, v), pattern_enabling_count(u, v)
        assert sp * (u + v - 1) == s

    @given(coprime_sides, st.floats(0.1, 10.0))
    def test_homogeneous_throughput_bounds(self, sides, lam):
        """min(u,v)λ/2 < ρ_exp <= min(u,v)λ (Fig. 15's ratio range)."""
        u, v = sides
        rho = pattern_throughput_homogeneous(u, v, lam)
        det = min(u, v) * lam
        assert det / 2 < rho <= det * (1 + 1e-12)

    @given(coprime_sides)
    @settings(max_examples=15, deadline=None)
    def test_pattern_net_is_live(self, sides):
        u, v = sides
        tpn = build_pattern_tpn(CommPattern.homogeneous(u, v, 1.0))
        assert is_live(tpn)
        assert int(tpn.initial_marking().sum()) == u + v

    @given(coprime_sides, st.lists(st.floats(0.2, 5.0), min_size=36, max_size=36))
    @settings(max_examples=10, deadline=None)
    def test_heterogeneous_det_below_fastest_hom(self, sides, raw):
        from repro.core.pattern import pattern_throughput_deterministic

        u, v = sides
        means = tuple(raw[: u * v])
        assume(len(means) == u * v)
        rho = pattern_throughput_deterministic(CommPattern(u, v, means))
        fastest = min(u, v) / min(means)
        slowest = min(u, v) / max(means)
        assert slowest * (1 - 1e-9) <= rho <= fastest * (1 + 1e-9)


# ----------------------------------------------------------------------
# Max-plus solver vs oracle
# ----------------------------------------------------------------------
class TestMaxPlusProperties:
    @given(
        st.integers(2, 5),
        st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_cycle_ratio_matches_oracle(self, n, data):
        g = TokenGraph(n)
        perm = data.draw(st.permutations(range(n)))
        for i in range(n):
            g.add_arc(
                perm[i],
                perm[(i + 1) % n],
                weight=data.draw(st.floats(0.0, 10.0)),
                tokens=data.draw(st.integers(1, 3)),
            )
        extra = data.draw(st.integers(0, 4))
        for _ in range(extra):
            g.add_arc(
                data.draw(st.integers(0, n - 1)),
                data.draw(st.integers(0, n - 1)),
                weight=data.draw(st.floats(0.0, 10.0)),
                tokens=data.draw(st.integers(1, 2)),
            )
        res = max_cycle_ratio(g)
        oracle = max_cycle_ratio_brute_force(g)
        assert res is not None and oracle is not None
        assert res.ratio == pytest.approx(oracle.ratio, rel=1e-9, abs=1e-9)

    @given(token_graphs())
    @settings(max_examples=300, deadline=None)
    def test_kernel_matches_brute_force(self, g):
        """Howard against cycle enumeration, on the same random graphs."""
        zero = nx.DiGraph()
        zero.add_nodes_from(range(g.n_nodes))
        zero.add_edges_from((a.src, a.dst) for a in g if a.tokens == 0)
        try:
            nx.find_cycle(zero)
            dead = True
        except nx.NetworkXNoCycle:
            dead = False
        assert g.has_zero_token_cycle() == dead
        if dead:
            with pytest.raises(StructuralError):
                max_cycle_ratio(g)
            return

        res = max_cycle_ratio(g)
        oracle = max_cycle_ratio_brute_force(g)
        assert (res is None) == (oracle is None)  # acyclic: None from both
        if oracle is None:
            return
        # The two sum a cycle's arcs in different orders, so the ratios
        # differ by rounding; abs covers ratios at or near zero.
        assert res.ratio == pytest.approx(oracle.ratio, rel=1e-9, abs=1e-9)

        # The witness is a closed walk, and some choice among its parallel
        # arcs gives exactly its totals: the kernel adds the walk's arcs
        # in walk order from nodes[0], as the sums below do.
        k = len(res.nodes)
        hops = [
            [(a.weight, a.tokens) for a in g
             if a.src == res.nodes[i] and a.dst == res.nodes[(i + 1) % k]]
            for i in range(k)
        ]
        assert all(hops)
        assert any(
            sum(w for w, _ in combo) == res.total_weight
            and sum(t for _, t in combo) == res.total_tokens
            for combo in itertools.product(*hops)
        )
        assert res.ratio == res.total_weight / res.total_tokens

    @given(st.floats(0.1, 10.0), st.integers(1, 5))
    def test_scaling_law(self, scale, tokens):
        """Scaling weights scales the ratio; scaling tokens divides it."""
        g1 = TokenGraph(2)
        g1.add_arc(0, 1, weight=2.0, tokens=1)
        g1.add_arc(1, 0, weight=3.0, tokens=tokens)
        g2 = TokenGraph(2)
        g2.add_arc(0, 1, weight=2.0 * scale, tokens=1)
        g2.add_arc(1, 0, weight=3.0 * scale, tokens=tokens)
        r1, r2 = max_cycle_ratio(g1), max_cycle_ratio(g2)
        assert r2.ratio == pytest.approx(r1.ratio * scale, rel=1e-9)


# ----------------------------------------------------------------------
# TPN invariants under random mappings
# ----------------------------------------------------------------------
class TestTpnProperties:
    @given(replications)
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_overlap_net_invariants(self, reps):
        mp = mapping_from_replication(reps)
        tpn = build_overlap_tpn(mp)
        assert is_feed_forward(tpn)
        assert is_live(tpn)
        assert tpn.n_transitions == mp.n_rows * (2 * len(reps) - 1)

    @given(replications)
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_strict_net_invariants(self, reps):
        mp = mapping_from_replication(reps)
        tpn = build_strict_tpn(mp)
        assert is_live(tpn)
        # Same transition grid as Overlap; only the places change.
        assert tpn.n_transitions == mp.n_rows * (2 * len(reps) - 1)

    @given(replications)
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_throughput_orderings(self, reps):
        """det >= exp (Theorem 7), per mapping."""
        mp = mapping_from_replication(reps)
        det = overlap_throughput(mp, "deterministic")
        exp = overlap_throughput(mp, "exponential")
        assert exp <= det * (1 + 1e-9)

    @given(short_replications, st.integers(0, 2 ** 16))
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_overlap_decomposition_matches_unrolled_scc_chains(self, reps, seed):
        """Theorems 3/4's decomposition equals the unrolled per-SCC CTMCs.

        Both sides are exact: the decomposition solves the quotient
        pattern's chain, the unrolled net the chain of its c-copy
        component, so they differ only by LU round-off. ``rel=1e-9``
        matches the hand-picked cross-checks in
        ``test_core_exponential.py``.
        """
        mp = mapping_from_replication(reps, seed=seed)
        scc = tpn_exponential_throughput_scc(
            build_overlap_tpn(mp), max_states=400_000
        )
        assert scc == pytest.approx(
            overlap_exponential_throughput(mp), rel=1e-9, abs=0
        )

    @given(short_replications, st.integers(0, 2 ** 16))
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_throughput_never_exceeds_critical_resource_bound(self, reps, seed):
        """``ρ <= 1 / Mct`` under both models, on nets of any shape.

        Strict nets of independent rows (a single replicated stage, or
        replication (3, 3)) are not strongly connected, so this also
        checks that the Table 1 value and the ``deterministic`` solver
        take the slowest component, not a sum over rows or branches.
        ``1e-9`` covers the kernel, which ignores gains below
        ``1e-11·max|w|`` per arc, so a critical ratio can sit that much
        per arc below the true one.

        The Theorem 7 sandwich must hold as well: building
        :class:`ThroughputBounds` checks that the exponential value does
        not exceed the deterministic one. Its marking chains are capped
        at 5 000 states to keep the test fast; a draw whose chain
        exceeds the cap skips only that exponential half.
        """
        mp = mapping_from_replication(reps, seed=seed)
        for model in ("overlap", "strict"):
            report = analyze_critical_resource(mp, model)
            bound = report.bound_throughput * (1 + 1e-9)
            assert report.actual_throughput <= bound
            assert evaluate(mp, solver="deterministic", model=model) <= bound
            try:
                throughput_bounds(mp, model, max_states=5_000)
            except StateSpaceLimitError:
                pass


# ----------------------------------------------------------------------
# Replication identity (the batch kernel against the per-stream loop)
# ----------------------------------------------------------------------
class TestReplicationProperties:
    LAWS = [
        "deterministic",
        "exponential",
        LawSpec.of("gamma", shape=0.5),
        LawSpec.of("uniform", rel_half_width=0.5),
    ]

    @given(
        short_replications,
        st.integers(0, 2 ** 16),
        st.sampled_from(["overlap", "strict"]),
        st.sampled_from(LAWS),
        st.sampled_from(["independent", "associated"]),
        st.integers(1, 6),
        st.integers(1, 40),
    )
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_spec_values_match_per_stream_loop(
        self, reps, seed, model, law, correlation, n_replications, n_datasets,
    ):
        """A spec's batched values are the bytes of its per-stream runs.

        ``replication_values`` runs a :class:`ReplicationSpec` as one
        ``simulate_system_batch`` pass; calling the spec once per stream
        spawned from the same seed must give the same vector, bit for
        bit, whatever the shape of the study. ``seed`` draws the platform
        and seeds the streams.
        """
        spec = ReplicationSpec(
            mapping_from_replication(reps, seed=seed),
            model,
            n_datasets=n_datasets,
            law=law,
            correlation=correlation,
        )
        streams = np.random.default_rng(seed).spawn(n_replications)
        runs = [spec(rng) for rng in streams]
        loop = np.array([r.throughput for r in runs])
        values = replication_values(
            spec, n_replications=n_replications, seed=seed
        )
        assert values.tobytes() == loop.tobytes()


# ----------------------------------------------------------------------
# Distribution invariants
# ----------------------------------------------------------------------
class TestDistributionProperties:
    FAMILIES = [
        ("deterministic", {}),
        ("exponential", {}),
        ("uniform", {}),
        ("gamma", {"shape": 2.0}),
        ("gamma", {"shape": 0.5}),
        ("beta", {"shape": 2.0}),
        ("weibull", {"shape": 1.5}),
        ("hyperexponential", {"cv2": 3.0}),
        ("lognormal", {"sigma": 0.7}),
        ("erlang", {"k": 3}),
    ]

    @given(st.floats(0.01, 1000.0), st.sampled_from(FAMILIES))
    @settings(max_examples=60, deadline=None)
    def test_mean_is_exact(self, mean, fam):
        family, params = fam
        d = make_distribution(family, mean, **params)
        assert d.mean == pytest.approx(mean, rel=1e-6)

    @given(
        st.floats(0.01, 100.0),
        st.floats(0.01, 100.0),
        st.sampled_from(FAMILIES),
    )
    @settings(max_examples=60, deadline=None)
    def test_with_mean_is_scale_family(self, m1, m2, fam):
        family, params = fam
        d = make_distribution(family, m1, **params)
        d2 = d.with_mean(m2)
        assert d2.mean == pytest.approx(m2, rel=1e-6)
        assert d2.cv2 == pytest.approx(d.cv2, rel=1e-6, abs=1e-12)
        assert d2.is_nbue == d.is_nbue

    @given(st.floats(0.1, 10.0), st.sampled_from(FAMILIES), st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_sampling_deterministic_under_seed(self, mean, fam, seed):
        family, params = fam
        d = make_distribution(family, mean, **params)
        a = d.sample(np.random.default_rng(seed), 16)
        b = d.sample(np.random.default_rng(seed), 16)
        assert np.array_equal(np.asarray(a), np.asarray(b))
