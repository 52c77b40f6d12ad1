"""Tests for the two simulators and the replication runner (Section 7)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    deterministic_throughput,
    overlap_exponential_throughput,
    strict_exponential_throughput,
)
from repro.exceptions import StructuralError
from repro.experiments.fig10 import paper_system
from repro.mapping.examples import example_a, single_communication
from repro.petri import build_overlap_tpn, build_strict_tpn
from repro.petri.net import TimedEventGraph
from repro.sim import (
    OnlineStats,
    ReplicationSpec,
    ReplicationSummary,
    normal_confidence_interval,
    replicate,
    replication_values,
    simulate_system,
    simulate_system_batch,
    simulate_tpn,
    throughput_vs_datasets,
)
from repro.sim.results import SimulationResult
from repro.sim.sampling import LawSpec, as_factory
from repro.types import PlaceKind, TransitionKind

from tests.conftest import make_mapping


class TestSimulationResult:
    def _result(self, times):
        return SimulationResult(
            completion_times=np.asarray(times, dtype=float),
            n_events=len(times),
            wall_time=0.0,
        )

    def test_throughput(self):
        r = self._result([1.0, 2.0, 4.0])
        assert r.throughput == pytest.approx(3 / 4.0)
        assert r.makespan == 4.0
        assert r.n_processed == 3

    def test_throughput_after(self):
        r = self._result([1.0, 2.0, 4.0])
        assert r.throughput_after(2) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            r.throughput_after(0)
        with pytest.raises(ValueError):
            r.throughput_after(4)

    def test_steady_state_discards_warmup(self):
        # Slow start then steady rate 1: total rate underestimates.
        times = [10.0] + [10.0 + k for k in range(1, 100)]
        r = self._result(times)
        assert r.steady_state_throughput() == pytest.approx(1.0, rel=0.01)
        assert r.throughput < 1.0

    @pytest.mark.parametrize("fraction", [-0.1, 1.0])
    def test_warmup_fraction_outside_unit_interval_raises(self, fraction):
        # -0.1 would index the completions from the end (2.2 where the
        # rate is 2.0); 1.0 would discard every one of them.
        mp = single_communication(2, 3, comm_time=1.0)
        run = simulate_system(mp, "overlap", n_datasets=100)
        (batch,) = simulate_system_batch(
            mp, "overlap", n_datasets=100, rngs=[np.random.default_rng(0)]
        )
        for method in (
            run.steady_state_throughput,
            run.latency_stats,
            batch.steady_state_throughput,
        ):
            with pytest.raises(ValueError, match="warmup_fraction"):
                method(warmup_fraction=fraction)

    def test_windowed(self):
        times = np.arange(1.0, 101.0)
        r = self._result(times)
        assert r.windowed_throughput(0.1, 0.5) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            r.windowed_throughput(0.5, 0.5)

    def test_empty(self):
        r = self._result([])
        assert r.throughput == 0.0
        assert r.makespan == 0.0


class TestSampling:
    def test_law_spec_label(self):
        assert LawSpec.of("gamma", shape=0.5).label == "gamma(shape=0.5)"
        assert LawSpec.of("exponential").label == "exponential"

    def test_as_factory_accepts_string(self):
        f = as_factory("exponential")
        assert f(2.0).mean == pytest.approx(2.0)

    def test_as_factory_accepts_callable(self):
        from repro.distributions import Deterministic

        f = as_factory(lambda mean: Deterministic(mean))
        assert f(3.0).sample(np.random.default_rng(0)) == 3.0

    def test_as_factory_rejects_junk(self):
        with pytest.raises(TypeError):
            as_factory(42)


class TestTpnSimulator:
    def test_deterministic_exact(self):
        mp = make_mapping([[0], [1]], works=[1.0, 2.0], files=[0.5])
        tpn = build_overlap_tpn(mp)
        sim = simulate_tpn(tpn, n_datasets=5000, law="deterministic", seed=0)
        assert sim.steady_state_throughput() == pytest.approx(0.5, rel=0.01)

    def test_reproducible_with_seed(self):
        mp = make_mapping([[0], [1, 2]])
        tpn = build_overlap_tpn(mp)
        a = simulate_tpn(tpn, n_datasets=500, law="exponential", seed=42)
        b = simulate_tpn(tpn, n_datasets=500, law="exponential", seed=42)
        assert np.array_equal(a.completion_times, b.completion_times)

    def test_strict_net(self):
        mp = make_mapping([[0], [1]], works=[1.0, 1.0], files=[1.0])
        tpn = build_strict_tpn(mp)
        sim = simulate_tpn(tpn, n_datasets=20_000, law="exponential", seed=3)
        assert sim.steady_state_throughput() == pytest.approx(
            strict_exponential_throughput(mp), rel=0.03
        )

    @pytest.mark.parametrize("model", ["overlap", "strict"])
    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: make_mapping([[0], [1, 2]], seed=0), id="seed0"),
            pytest.param(lambda: make_mapping([[0], [1, 2]], seed=1), id="seed1"),
            pytest.param(lambda: make_mapping([[0], [1, 2]], seed=2), id="seed2"),
            pytest.param(
                lambda: make_mapping([[0, 1], [2, 3, 4]], seed=1), id="2x3"
            ),
            pytest.param(
                lambda: make_mapping([[0], [1, 2], [3, 4, 5]], seed=2),
                id="three-stage",
            ),
            pytest.param(example_a, id="example-a"),
            pytest.param(paper_system, id="fig10"),
        ],
    )
    def test_constant_times_match_system_simulator(self, make, model):
        """Both simulators complete each data set at the same instant,
        bit for bit, when every duration is its mean. The vectors are
        compared by data-set index: seed0 and three-stage in Overlap and
        2x3 in both models complete out of time order, so this is
        stronger than comparing sorted completions."""
        mp = make()
        build = build_overlap_tpn if model == "overlap" else build_strict_tpn
        tpn = simulate_tpn(
            build(mp), n_datasets=3000, law="deterministic", seed=0
        )
        direct = simulate_system(
            mp, model, n_datasets=3000, law="deterministic", seed=0
        )
        assert np.array_equal(tpn.completion_times, direct.completion_times)

    def test_transition_without_input_place_rejected(self):
        net = TimedEventGraph(n_rows=1, n_columns=2)
        t0 = net.add_transition(TransitionKind.COMPUTE, 0, 0, 0, ("cpu", 0), 1.0)
        t1 = net.add_transition(TransitionKind.COMPUTE, 1, 0, 1, ("cpu", 1), 1.0)
        net.add_place(t0, t1, 0, PlaceKind.FLOW)
        net.add_place(t1, t1, 1, PlaceKind.PROC_CYCLE)
        with pytest.raises(StructuralError, match="transition 0 has no input"):
            simulate_tpn(net, n_datasets=10, seed=0)

    def test_dead_net_rejected(self):
        net = TimedEventGraph(n_rows=1, n_columns=2)
        t0 = net.add_transition(TransitionKind.COMPUTE, 0, 0, 0, ("cpu", 0), 1.0)
        t1 = net.add_transition(TransitionKind.COMPUTE, 1, 0, 1, ("cpu", 1), 1.0)
        net.add_place(t0, t1, 0, PlaceKind.FLOW)
        net.add_place(t1, t0, 0, PlaceKind.FLOW)
        with pytest.raises(StructuralError, match="not live"):
            simulate_tpn(net, n_datasets=10, seed=0)

    def test_component_subnets_skip_empty_rows(self):
        """A component of the split Strict pin keeps one of the two rows
        of the last column; the other row's grid cell holds -1. Counting
        only the kept row gives each component's own rate (taking the
        -1 as a transition index reads 0.79870 and 0.51134)."""
        from repro.petri.analysis import strongly_connected_components, subnet

        tpn = build_strict_tpn(make_mapping([[0, 1], [2, 3]], seed=0))
        rates = []
        for members in strongly_connected_components(tpn):
            sub, _ = subnet(tpn, members)
            assert (sub.grid[-1] == -1).sum() == 1
            sim = simulate_tpn(sub, n_datasets=100, law="deterministic")
            assert sim.n_processed == 100
            rates.append(sim.throughput)
        assert rates == pytest.approx([0.40045, 0.25639], abs=5e-6)

    def test_subnet_without_last_column_rejected(self):
        """The first stage's processor cycle completes no data set."""
        from repro.petri.analysis import subnet

        tpn = build_overlap_tpn(make_mapping([[0], [1]]))
        sub, _ = subnet(tpn, tpn.column_transitions(0))
        with pytest.raises(StructuralError, match="no last-column"):
            simulate_tpn(sub, n_datasets=5, law="deterministic")


class TestSystemSimulator:
    def test_deterministic_unreplicated(self):
        mp = make_mapping([[0], [1]], works=[1.0, 2.0], files=[0.5])
        for model in ("overlap", "strict"):
            sim = simulate_system(
                mp, model, n_datasets=5000, law="deterministic", seed=0
            )
            assert sim.steady_state_throughput() == pytest.approx(
                deterministic_throughput(mp, model), rel=0.01
            )

    def test_exponential_overlap(self):
        mp = single_communication(3, 4)
        sim = simulate_system(
            mp, "overlap", n_datasets=120_000, law="exponential", seed=1
        )
        assert sim.steady_state_throughput() == pytest.approx(
            overlap_exponential_throughput(mp), rel=0.03
        )

    def test_bandwidth_efficiency_slows_comms(self):
        mp = single_communication(2, 3)
        full = simulate_system(
            mp, "overlap", n_datasets=20_000, law="deterministic", seed=2
        )
        derated = simulate_system(
            mp,
            "overlap",
            n_datasets=20_000,
            law="deterministic",
            seed=2,
            bandwidth_efficiency=0.92,
        )
        assert derated.steady_state_throughput() == pytest.approx(
            full.steady_state_throughput() * 0.92, rel=0.01
        )

    def test_bandwidth_efficiency_validation(self):
        mp = make_mapping([[0], [1]])
        with pytest.raises(ValueError):
            simulate_system(mp, "overlap", n_datasets=10, bandwidth_efficiency=0.0)

    def test_associated_mode_runs_and_orders(self):
        """Theorem 8's ordering: ρ_det >= ρ_associated (sampled)."""
        mp = make_mapping([[0], [1]], works=[1.0, 1.0], files=[1.0])
        det = deterministic_throughput(mp, "overlap")
        assoc = simulate_system(
            mp,
            "overlap",
            n_datasets=80_000,
            law="exponential",
            seed=3,
            correlation="associated",
        )
        assert assoc.steady_state_throughput() <= det * 1.02

    def test_associated_differs_from_independent(self):
        mp = make_mapping([[0], [1]], works=[1.0, 1.0], files=[1.0])
        a = simulate_system(
            mp, "overlap", n_datasets=2000, law="exponential", seed=3,
            correlation="associated",
        )
        b = simulate_system(
            mp, "overlap", n_datasets=2000, law="exponential", seed=3,
            correlation="independent",
        )
        assert not np.array_equal(a.completion_times, b.completion_times)

    def test_theorem8_association_helps(self):
        """Theorem 8 ordering: ρ_det >= ρ_assoc >= ρ_iid (averaged).

        Positively correlated computation/transfer times synchronize the
        pipeline, so association can only raise the expected throughput
        relative to the fully independent case with the same marginals.
        """
        mp = make_mapping([[0], [1]], works=[1.0, 1.0], files=[1.0])
        import numpy as np

        a_vals, i_vals = [], []
        for seed in range(10):
            a_vals.append(
                simulate_system(
                    mp, "overlap", n_datasets=20_000, law="exponential",
                    seed=seed, correlation="associated",
                ).steady_state_throughput()
            )
            i_vals.append(
                simulate_system(
                    mp, "overlap", n_datasets=20_000, law="exponential",
                    seed=seed, correlation="independent",
                ).steady_state_throughput()
            )
        from repro.core import deterministic_throughput

        det = deterministic_throughput(mp, "overlap")
        assert float(np.mean(a_vals)) >= float(np.mean(i_vals)) - 0.005
        assert float(np.mean(a_vals)) <= det * 1.01

    def test_correlation_validation(self):
        mp = make_mapping([[0]])
        with pytest.raises(ValueError):
            simulate_system(mp, "overlap", n_datasets=10, correlation="???")

    def test_sorted_completions(self):
        # The fast teammate runs ahead of the slow one: data sets complete
        # out of time order. The record keeps them by index, and its
        # estimators read them sorted.
        mp = make_mapping(
            [[0], [1, 2]], works=[0.01, 2.0], files=[0.01],
            speeds=[100.0, 10.0, 0.5],
        )
        sim = simulate_system(
            mp, "overlap", n_datasets=5000, law="deterministic", seed=0
        )
        assert (np.diff(sim.completion_times) < 0).any()
        assert (np.diff(sim.time_ordered) >= 0).all()
        assert np.array_equal(sim.time_ordered, np.sort(sim.completion_times))
        assert sim.makespan == sim.completion_times.max()
        entries = sim.completion_times - sim.latencies
        assert (entries >= 0).all() and (np.diff(entries) >= 0).all()

    def test_agreement_between_engines(self):
        """The two independent simulators agree (model fidelity, §7.4)."""
        mp = make_mapping([[0], [1, 2], [3]], seed=5)
        a = simulate_system(
            mp, "strict", n_datasets=30_000, law="exponential", seed=9
        )
        b = simulate_tpn(
            build_strict_tpn(mp), n_datasets=30_000, law="exponential", seed=10
        )
        assert a.steady_state_throughput() == pytest.approx(
            b.steady_state_throughput(), rel=0.03
        )


class TestStatsAndRunner:
    def test_online_stats(self, rng):
        xs = rng.normal(5.0, 2.0, 5000)
        st = OnlineStats()
        for x in xs:
            st.push(float(x))
        assert st.mean == pytest.approx(xs.mean())
        assert st.std == pytest.approx(xs.std(ddof=1), rel=1e-9)
        assert st.min == xs.min() and st.max == xs.max()

    def test_confidence_interval(self):
        lo, hi = normal_confidence_interval(10.0, 2.0, 100)
        assert lo < 10.0 < hi
        assert hi - lo == pytest.approx(2 * 1.959964 * 2.0 / 10.0, rel=1e-4)

    def test_confidence_interval_matches_scipy_quantile(self):
        # scipy.stats is the oracle only: the interval takes its normal
        # quantile from the standard library. Over these 2006 levels the
        # two differ by at most 7.0e-16 relative (6 ulp).
        from scipy.stats import norm

        for confidence in np.linspace(0.01, 0.999, 2006).tolist():
            z = float(norm.ppf(0.5 + confidence / 2.0))
            # Four unit-variance samples: the half-width is exactly z / 2.
            lo, hi = normal_confidence_interval(
                0.0, 1.0, 4, confidence=confidence
            )
            assert 2.0 * hi == pytest.approx(z, rel=1e-15, abs=0.0)
            assert lo == -hi

    def test_replicate_summary(self):
        spec = ReplicationSpec(
            single_communication(2, 3), "overlap", n_datasets=2000,
            law="exponential",
        )
        summary = replicate(spec, n_replications=16, seed=0)
        assert isinstance(summary, ReplicationSummary)
        assert summary.min <= summary.mean <= summary.max
        assert summary.ci95[0] <= summary.mean <= summary.ci95[1]
        assert 0 < summary.relative_std < 0.2

    def test_replicate_independent_streams(self):
        spec = ReplicationSpec(
            single_communication(2, 3), "overlap", n_datasets=200,
            law="exponential",
        )
        values = replication_values(spec, n_replications=5, seed=1)
        assert len(set(values.tolist())) == 5

    def test_throughput_vs_datasets_prefix(self):
        spec = ReplicationSpec(
            single_communication(2, 3), "overlap", n_datasets=1,
            law="exponential",
        )
        series = throughput_vs_datasets(spec, [10, 100, 1000], seed=0)
        assert [k for k, _ in series] == [10, 100, 1000]
        # Converges towards the theoretical value 1.5.
        assert series[-1][1] == pytest.approx(1.5, rel=0.1)

    def test_runner_validation(self):
        spec = ReplicationSpec(single_communication(2, 3), n_datasets=10)
        with pytest.raises(ValueError):
            replicate(spec, n_replications=0)
        with pytest.raises(ValueError):
            throughput_vs_datasets(spec, [])
