"""Kernel-layer equivalence tests.

The vectorized reachability BFS, the simulator fast path and the parallel
replication runner are all re-implementations of seed code kept in-tree
as reference oracles; these tests pin them to the oracles bit-for-bit,
on hand-built nets, on builder output, and on randomly generated bounded
event graphs.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.petri import (
    build_overlap_tpn,
    build_strict_tpn,
    explore,
    explore_reference,
)
from repro.petri.net import TimedEventGraph
from repro.petri.reachability import MAX_PLACE_BOUND
from repro.sim import replicate, simulate_tpn
from repro.types import PlaceKind, TransitionKind

from tests.conftest import make_mapping


def random_event_graph(seed: int, *, n_transitions: int = 8) -> TimedEventGraph:
    """A random strongly connected (hence bounded) timed event graph.

    A token ring over all transitions plus random chord places; every
    chord closes a cycle through the ring, so every place sits on a
    token-invariant circuit and the reachable marking set is finite.
    """
    r = np.random.default_rng(seed)
    net = TimedEventGraph(n_rows=1, n_columns=n_transitions)
    for t in range(n_transitions):
        net.add_transition(
            TransitionKind.COMPUTE, t, 0, t, ("cpu", t), float(r.uniform(0.5, 2.0))
        )
    for t in range(n_transitions):
        net.add_place(
            t, (t + 1) % n_transitions, int(r.integers(0, 3)), PlaceKind.FLOW
        )
    for _ in range(int(r.integers(2, 7))):
        src, dst = r.integers(0, n_transitions, size=2)
        net.add_place(int(src), int(dst), int(r.integers(0, 2)), PlaceKind.CAPACITY)
    return net


def assert_same_reachability(a, b) -> None:
    assert a.states == b.states
    assert a.arcs == b.arcs
    assert a.initial == b.initial
    assert a.n_places == b.n_places


class TestIncidenceKernel:
    def test_matrices_match_adjacency(self):
        tpn = build_strict_tpn(make_mapping([[0], [1, 2]], seed=4))
        cons, prod = tpn.incidence_matrices()
        assert cons.dtype == np.int8 and prod.dtype == np.int8
        assert cons.shape == (tpn.n_transitions, tpn.n_places)
        for t in range(tpn.n_transitions):
            assert sorted(np.nonzero(cons[t])[0].tolist()) == sorted(tpn.in_places[t])
            assert sorted(np.nonzero(prod[t])[0].tolist()) == sorted(tpn.out_places[t])
        # each place has exactly one producer and one consumer
        assert (cons.sum(axis=0) == 1).all()
        assert (prod.sum(axis=0) == 1).all()

    def test_delta_is_firing_update(self):
        tpn = build_strict_tpn(make_mapping([[0], [1]]))
        kern = tpn.kernel
        m = tpn.initial_marking()
        for t in range(tpn.n_transitions):
            expected = m.copy()
            expected[tpn.in_places[t]] -= 1
            expected[tpn.out_places[t]] += 1
            assert (m + kern.delta[t] == expected).all()

    def test_flat_adjacency_roundtrip(self):
        tpn = build_overlap_tpn(make_mapping([[0], [1, 2]]))
        kern = tpn.kernel
        assert kern.in_places_list() == tpn.in_places
        assert kern.out_places_list() == tpn.out_places
        assert kern.place_src.tolist() == [p.src for p in tpn.places]
        assert kern.place_dst.tolist() == [p.dst for p in tpn.places]

    def test_enabled_matches_marking_semantics(self):
        tpn = random_event_graph(0)
        kern = tpn.kernel
        m = tpn.initial_marking().astype(np.int16)
        mask = kern.enabled(m[None, :])[0]
        for t in range(tpn.n_transitions):
            expected = all(m[p] > 0 for p in tpn.in_places[t])
            assert bool(mask[t]) == expected


class TestExploreEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_event_graphs(self, seed):
        tpn = random_event_graph(seed, n_transitions=int(4 + seed % 5))
        ref = explore_reference(tpn, max_states=50_000)
        vec = explore(tpn, max_states=50_000)
        assert_same_reachability(vec, ref)

    @pytest.mark.parametrize(
        "teams", [[[0], [1]], [[0], [1, 2]], [[0, 1], [2, 3]], [[0], [1, 2], [3, 4]]]
    )
    @pytest.mark.parametrize("seed", [None, 2])
    def test_built_strict_nets(self, teams, seed):
        tpn = build_strict_tpn(make_mapping(teams, seed=seed))
        assert_same_reachability(
            explore(tpn, max_states=100_000),
            explore_reference(tpn, max_states=100_000),
        )

    def test_mid_size_strict_net(self):
        """The 10 368-marking mid-size Strict net: both explorers find
        every marking, identically."""
        tpn = build_strict_tpn(
            make_mapping([[0, 1], [2, 3, 4], [5, 6, 7]], seed=1)
        )
        vec = explore(tpn, max_states=500_000)
        assert vec.n_states == 10_368
        assert_same_reachability(vec, explore_reference(tpn, max_states=500_000))

    def test_flat_arcs_consistent(self):
        tpn = build_strict_tpn(make_mapping([[0], [1, 2]], seed=4))
        reach = explore(tpn)
        src, trans, dst = reach.flat_arcs()
        rebuilt = [[] for _ in range(reach.n_states)]
        for s, t, s2 in zip(src.tolist(), trans.tolist(), dst.tolist()):
            rebuilt[s].append((t, s2))
        assert rebuilt == reach.arcs

    def test_state_space_limit_matches(self):
        from repro.exceptions import StateSpaceLimitError

        tpn = build_strict_tpn(make_mapping([[0], [1, 2], [3, 4]]))
        with pytest.raises(StateSpaceLimitError):
            explore(tpn, max_states=10)
        with pytest.raises(StateSpaceLimitError):
            explore_reference(tpn, max_states=10)


class TestPlaceBoundValidation:
    """Regression: bounds above 255 used to alias distinct markings onto
    the same uint8 key, silently merging states."""

    @pytest.mark.parametrize("explorer", [explore, explore_reference])
    @pytest.mark.parametrize("bad", [0, -1, 256, 300, 1000])
    def test_out_of_range_bound_rejected(self, explorer, bad):
        tpn = build_strict_tpn(make_mapping([[0], [1]]))
        with pytest.raises(ValueError, match="place_bound"):
            explorer(tpn, place_bound=bad)

    @pytest.mark.parametrize("explorer", [explore, explore_reference])
    def test_max_valid_bound_accepted(self, explorer):
        tpn = build_strict_tpn(make_mapping([[0], [1]]))
        result = explorer(tpn, place_bound=MAX_PLACE_BOUND)
        assert result.n_states > 0


class TestSimulatorEngines:
    @pytest.mark.parametrize("law", ["exponential", "uniform"])
    @pytest.mark.parametrize("builder", [build_strict_tpn, build_overlap_tpn])
    def test_fast_matches_reference_event_for_event(self, law, builder):
        tpn = builder(make_mapping([[0], [1, 2]], seed=3))
        ref = simulate_tpn(tpn, n_datasets=300, law=law, seed=99, engine="reference")
        fast = simulate_tpn(tpn, n_datasets=300, law=law, seed=99, engine="fast")
        assert fast.n_events == ref.n_events
        assert np.array_equal(fast.completion_times, ref.completion_times)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_mappings_match(self, seed):
        tpn = build_strict_tpn(make_mapping([[0], [1, 2], [3, 4]], seed=seed))
        ref = simulate_tpn(tpn, n_datasets=150, seed=seed, engine="reference")
        fast = simulate_tpn(tpn, n_datasets=150, seed=seed, engine="fast")
        assert fast.n_events == ref.n_events
        assert np.array_equal(fast.completion_times, ref.completion_times)

    def test_paper_system_matches(self):
        from repro.experiments.fig10 import paper_system

        tpn = build_overlap_tpn(paper_system())
        ref = simulate_tpn(tpn, n_datasets=300, seed=7, engine="reference")
        fast = simulate_tpn(tpn, n_datasets=300, seed=7, engine="fast")
        assert fast.n_processed == 300
        assert np.array_equal(fast.completion_times, ref.completion_times)

    def test_throttle_none_matches(self):
        tpn = build_overlap_tpn(make_mapping([[0], [1]]))
        ref = simulate_tpn(
            tpn, n_datasets=100, seed=1, throttle=None, engine="reference"
        )
        fast = simulate_tpn(tpn, n_datasets=100, seed=1, throttle=None, engine="fast")
        assert np.array_equal(fast.completion_times, ref.completion_times)

    def test_unknown_engine_rejected(self):
        tpn = build_strict_tpn(make_mapping([[0], [1]]))
        with pytest.raises(ValueError, match="engine"):
            simulate_tpn(tpn, n_datasets=1, engine="turbo")


def _replication_run(tpn, rng):
    return simulate_tpn(tpn, n_datasets=120, rng=rng)


class TestParallelReplicate:
    def test_n_jobs_bit_identical(self):
        tpn = build_strict_tpn(make_mapping([[0], [1, 2]], seed=5))
        run = partial(_replication_run, tpn)
        serial = replicate(run, n_replications=8, seed=17)
        parallel = replicate(run, n_replications=8, seed=17, n_jobs=2)
        assert parallel == serial  # frozen dataclass: exact float equality

    def test_n_jobs_capped_by_replications(self):
        tpn = build_strict_tpn(make_mapping([[0], [1]]))
        run = partial(_replication_run, tpn)
        assert replicate(run, n_replications=1, seed=3, n_jobs=8) == replicate(
            run, n_replications=1, seed=3
        )

    def test_unpicklable_run_falls_back_to_serial(self):
        tpn = build_strict_tpn(make_mapping([[0], [1]]))
        run = lambda rng: simulate_tpn(tpn, n_datasets=50, rng=rng)  # noqa: E731
        serial = replicate(run, n_replications=3, seed=2)
        with pytest.warns(RuntimeWarning, match="not picklable"):
            parallel = replicate(run, n_replications=3, seed=2, n_jobs=4)
        assert parallel == serial

    def test_invalid_n_jobs(self):
        tpn = build_strict_tpn(make_mapping([[0], [1]]))
        with pytest.raises(ValueError, match="n_jobs"):
            replicate(partial(_replication_run, tpn), n_replications=2, n_jobs=0)


class TestErrorParity:
    """Both explorers must fail identically, in type and position."""

    def _unbounded_net(self) -> TimedEventGraph:
        """t0 free-runs on a self place; t1 never fires, so the flow
        place t0→t1 accumulates without bound."""
        net = TimedEventGraph(n_rows=1, n_columns=2)
        t0 = net.add_transition(TransitionKind.COMPUTE, 0, 0, 0, ("cpu", 0), 1.0)
        t1 = net.add_transition(TransitionKind.COMPUTE, 1, 0, 1, ("cpu", 1), 1.0)
        net.add_place(t0, t0, 1, PlaceKind.PROC_CYCLE)
        net.add_place(t0, t1, 0, PlaceKind.FLOW)
        net.add_place(t1, t1, 0, PlaceKind.PROC_CYCLE)  # never marked
        return net

    @pytest.mark.parametrize(
        "max_states,place_bound",
        [(100_000, 5), (4, 64), (6, 5), (5, 4)],
    )
    def test_same_exception_on_unbounded_net(self, max_states, place_bound):
        net = self._unbounded_net()
        with pytest.raises(Exception) as ref_err:
            explore_reference(net, max_states=max_states, place_bound=place_bound)
        with pytest.raises(Exception) as vec_err:
            explore(net, max_states=max_states, place_bound=place_bound)
        assert type(vec_err.value) is type(ref_err.value)

    def test_counted_out_of_range_rejected(self):
        """Regression: negative indices used to wrap via the numpy mask
        and silently count the wrong transition."""
        from repro.exceptions import StructuralError
        from repro.markov import tpn_throughput_exponential

        tpn = build_strict_tpn(make_mapping([[0], [1]]))
        with pytest.raises(StructuralError, match="counted"):
            tpn_throughput_exponential(tpn, counted=[-1])
        with pytest.raises(StructuralError, match="counted"):
            tpn_throughput_exponential(tpn, counted=[tpn.n_transitions])

    def test_bench_cli_rejects_nonpositive_repeats(self):
        from repro.cli import main

        with pytest.raises(SystemExit) as err:
            main(["bench", "--quick", "--repeats", "0"])
        assert err.value.code == 2


class TestMarkovBuilderVectorized:
    def test_ctmc_matches_loop_assembly(self):
        from repro.markov.builder import ctmc_from_tpn, exponential_rates
        from repro.markov.ctmc import CTMC

        tpn = build_strict_tpn(make_mapping([[0], [1, 2]], seed=4))
        rates = exponential_rates(tpn)
        chain, reach = ctmc_from_tpn(tpn)
        rows, cols, vals = [], [], []
        for s, moves in enumerate(reach.arcs):
            for t, s2 in moves:
                if s2 == s:
                    continue
                rows.append(s)
                cols.append(s2)
                vals.append(float(rates[t]))
        expected = CTMC(reach.n_states, rows, cols, vals)
        diff = (chain.rate_matrix - expected.rate_matrix).toarray()
        assert np.abs(diff).max() == 0.0
