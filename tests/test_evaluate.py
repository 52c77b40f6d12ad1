"""Tests for the unified throughput-solver subsystem (repro.evaluate)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Application, Mapping, Platform, StreamingSystem
from repro.core.components import overlap_throughput
from repro.core.deterministic import tpn_throughput_deterministic
from repro.core.exponential import exponential_throughput
from repro.core.bounds import throughput_bounds
from repro.evaluate import (
    StructureCache,
    TaskFailure,
    available_solvers,
    evaluate,
    evaluate_many,
    evaluate_tasks,
    get_solver,
    mapping_fingerprint,
    solver_options,
    structure_fingerprint,
)
from repro.exceptions import InvalidDistributionError, UnsupportedModelError
from repro.mapping.examples import example_a, single_communication
from repro.mapping.generators import random_mapping
from repro.markov.builder import tpn_throughput_exponential
from repro.petri.builder_strict import build_strict_tpn

from tests.conftest import make_mapping


def _instance(seed: int = 0, n: int = 3, m: int = 9):
    rng = np.random.default_rng(seed)
    app = Application.from_work(
        rng.uniform(1.0, 8.0, n).tolist(), rng.uniform(0.1, 0.5, n - 1).tolist()
    )
    platform = Platform.from_speeds(
        rng.uniform(1.0, 3.0, m).tolist(), bandwidth=5.0
    )
    return app, platform


class TestRegistry:
    def test_all_backends_registered(self):
        names = available_solvers()
        for expected in ("bounds", "deterministic", "exponential", "simulation"):
            assert expected in names

    def test_unknown_solver_raises(self):
        with pytest.raises(UnsupportedModelError, match="unknown solver"):
            get_solver("quantum")

    def test_options_configure_the_instance(self):
        solver = get_solver("exponential", buffer_capacity=2)
        assert solver.buffer_capacity == 2

    def test_simulation_solver_checks_estimator_and_law_when_built(self):
        # A single-run solver used to score an unknown estimator as
        # "total", and a bad law raised only at solve time.
        with pytest.raises(ValueError, match="unknown estimator 'median'"):
            get_solver("simulation", n_datasets=200, estimator="median")
        with pytest.raises(
            InvalidDistributionError, match="unknown distribution family"
        ):
            get_solver("simulation", law="cauchy")
        with pytest.raises(InvalidDistributionError, match="shapez"):
            get_solver("simulation", law="gamma", law_params={"shapez": 0.5})
        solver = get_solver(
            "simulation", law="gamma", law_params={"shape": 0.5},
            estimator="steady",
        )
        assert solver.law_params == (("shape", 0.5),)

    def test_removed_path_selectors_rejected(self):
        # The input picks each path; no solver takes a selector for it.
        with pytest.raises(TypeError, match="engine"):
            get_solver("simulation", engine="vectorized")
        with pytest.raises(TypeError, match="method"):
            get_solver("exponential", method="full")

    def test_semantics_option_removed(self):
        # Every engine reports the slowest component's rate: no solver
        # takes a throughput rule, and the deterministic one takes nothing.
        # The option arrives as a spec or a wire task would send it.
        options = {"semantics": "bottleneck"}
        for name in ("deterministic", "exponential", "bounds"):
            with pytest.raises(TypeError, match="semantics"):
                get_solver(name, **options)
        assert solver_options("deterministic") == ()


class TestSolverAgreement:
    """Every registered solver agrees with its pre-refactor call path."""

    @pytest.fixture(scope="class")
    def systems(self):
        return {
            "example_a": example_a(),
            "single_comm": single_communication(3, 2, comm_time=1.0),
            "small": make_mapping([[0], [1, 2]], seed=4),
        }

    def test_deterministic_overlap(self, systems):
        for mp in systems.values():
            assert evaluate(mp, solver="deterministic") == overlap_throughput(
                mp, "deterministic"
            )

    def test_deterministic_strict(self, systems):
        for name in ("example_a", "small"):
            mp = systems[name]
            legacy = tpn_throughput_deterministic(build_strict_tpn(mp))
            assert (
                evaluate(mp, solver="deterministic", model="strict") == legacy
            )

    def test_exponential_overlap(self, systems):
        for mp in systems.values():
            assert evaluate(mp, solver="exponential") == overlap_throughput(
                mp, "exponential"
            )

    def test_exponential_strict(self, systems):
        mp = systems["small"]
        legacy = exponential_throughput(mp, "strict")
        assert evaluate(mp, solver="exponential", model="strict") == legacy
        # And with a cache (shared net + reachability): still identical.
        assert (
            evaluate(
                mp, solver="exponential", model="strict", cache=StructureCache()
            )
            == legacy
        )

    def test_bounds_solver_matches_legacy_formulas(self, systems):
        for model in ("overlap", "strict"):
            mp = systems["small"]
            b = get_solver("bounds").bounds(mp, model)
            if model == "overlap":
                assert b.upper == overlap_throughput(mp, "deterministic")
                assert b.lower == overlap_throughput(mp, "exponential")
            else:
                assert b.upper == tpn_throughput_deterministic(
                    build_strict_tpn(mp)
                )
                assert b.lower == tpn_throughput_exponential(
                    build_strict_tpn(mp)
                )
            assert throughput_bounds(mp, model).lower == b.lower

    def test_streaming_system_delegates(self, systems):
        mp = systems["example_a"]
        sys_ = StreamingSystem(mp, "overlap")
        assert sys_.deterministic_throughput() == overlap_throughput(
            mp, "deterministic"
        )
        assert sys_.exponential_throughput() == overlap_throughput(
            mp, "exponential"
        )
        assert sys_.solve("deterministic") == sys_.deterministic_throughput()
        # Repeated calls are memo hits on the system's own cache.
        assert sys_.cache.hits > 0

    def test_simulation_solver_is_deterministic(self, systems):
        mp = systems["single_comm"]
        a = evaluate(mp, solver="simulation", n_datasets=200, seed=9)
        b = evaluate(mp, solver="simulation", n_datasets=200, seed=9)
        assert a == b
        c = evaluate(mp, solver="simulation", n_datasets=200, seed=10)
        assert a != c


class TestFingerprint:
    def test_isomorphic_relabelling_collapses(self):
        app = Application.from_work([1.0, 2.0], [0.5])
        plat = Platform.homogeneous(6, 2.0, 1.0)
        m1 = Mapping(app, plat, [[0, 1], [2, 3]])
        m2 = Mapping(app, plat, [[4, 5], [0, 2]])
        assert mapping_fingerprint(m1) == mapping_fingerprint(m2)

    def test_different_times_differ(self):
        app = Application.from_work([1.0, 2.0], [0.5])
        plat = Platform.from_speeds([1.0, 2.0, 1.0, 1.0], bandwidth=1.0)
        m1 = Mapping(app, plat, [[0], [2]])
        m2 = Mapping(app, plat, [[1], [2]])  # faster P1 on stage 0
        assert mapping_fingerprint(m1) != mapping_fingerprint(m2)

    def test_model_is_part_of_the_key(self):
        mp = make_mapping([[0], [1]])
        assert mapping_fingerprint(mp, "overlap") != mapping_fingerprint(
            mp, "strict"
        )

    def test_structure_fingerprint_ignores_times(self):
        m1 = make_mapping([[0], [1, 2]], works=[1.0, 2.0], files=[0.5])
        m2 = make_mapping([[0], [1, 2]], works=[3.0, 7.0], files=[2.5])
        assert structure_fingerprint(m1, "strict") == structure_fingerprint(
            m2, "strict"
        )


class TestEvaluateMany:
    def test_parallel_bit_identical_to_serial(self):
        app, platform = _instance(0)
        batch = [
            random_mapping(app, platform, np.random.default_rng(k),
                           max_replication=3)
            for k in range(8)
        ]
        serial = evaluate_many(batch, solver="deterministic", n_jobs=1)
        parallel = evaluate_many(batch, solver="deterministic", n_jobs=2)
        assert serial == parallel

    def test_parallel_bit_identical_simulation(self):
        app, platform = _instance(1)
        batch = [
            random_mapping(app, platform, np.random.default_rng(k),
                           max_replication=3)
            for k in range(4)
        ]
        kwargs = dict(solver="simulation", n_datasets=100, seed=3)
        assert evaluate_many(batch, n_jobs=1, **kwargs) == evaluate_many(
            batch, n_jobs=2, **kwargs
        )

    def test_duplicates_are_evaluated_once(self):
        mp = make_mapping([[0], [1, 2]], seed=2)
        cache = StructureCache()
        values = evaluate_many([mp, mp, mp], solver="deterministic", cache=cache)
        assert values[0] == values[1] == values[2]
        assert cache.misses == 1 and cache.hits == 2

    def test_memo_persists_across_calls(self):
        mp = make_mapping([[0], [1, 2]], seed=2)
        cache = StructureCache()
        [first] = evaluate_many([mp], solver="deterministic", cache=cache)
        [again] = evaluate_many([mp], solver="deterministic", cache=cache)
        assert first == again
        assert cache.stats()["hits"] == 1

    def test_solver_options_partition_the_memo(self):
        mp = make_mapping([[0], [1, 2]], seed=5)
        cache = StructureCache()
        a = evaluate(mp, solver="exponential", cache=cache)
        b = evaluate(mp, solver="exponential", buffer_capacity=2, cache=cache)
        assert cache.misses == 2  # different options, different entries
        assert a >= b  # a finite buffer can only slow the pipeline


class TestStructureSharing:
    def test_strict_reachability_shared_across_same_topology(self):
        cache = StructureCache()
        batch = [
            make_mapping([[0], [1, 2]], seed=s) for s in range(4)
        ]  # same replication, different speeds
        values = evaluate_many(
            batch, solver="exponential", model="strict", cache=cache
        )
        assert cache.stats()["reachability"] == 1
        assert cache.stats()["nets"] == 4
        uncached = [
            exponential_throughput(mp, "strict") for mp in batch
        ]
        assert values == uncached

    def test_bounds_share_one_net(self):
        mp = make_mapping([[0], [1, 2]], seed=3)
        cache = StructureCache()
        get_solver("bounds").bounds(mp, "strict", cache=cache)
        assert cache.stats()["nets"] == 1
        assert cache.stats()["reachability"] == 1


# ----------------------------------------------------------------------
# Structured failure records (evaluate_tasks on_error="record")
# ----------------------------------------------------------------------
class _ExplodingSolver:
    """A picklable solver whose solve always raises (worker-safe)."""

    name = "exploding"

    def solve(self, mapping, model="overlap", *, cache=None):
        raise RuntimeError("kaboom")


class TestTaskFailureRecords:
    def test_default_mode_still_raises(self):
        mp = single_communication(2, 2)
        with pytest.raises(RuntimeError, match="kaboom"):
            evaluate_tasks([(_ExplodingSolver(), mp, "overlap")])

    def test_record_mode_isolates_the_poisoned_task(self):
        mp = single_communication(2, 2)
        tasks = [
            ("deterministic", mp, "overlap"),
            (_ExplodingSolver(), mp, "overlap"),
            ("deterministic", single_communication(2, 3), "overlap"),
        ]
        values = evaluate_tasks(tasks, on_error="record")
        assert values[0] == evaluate(mp, solver="deterministic")
        assert isinstance(values[1], TaskFailure)
        assert (values[1].error, values[1].message) == ("RuntimeError", "kaboom")
        assert values[2] == evaluate(
            single_communication(2, 3), solver="deterministic"
        )

    def test_record_mode_covers_solver_resolution(self):
        mp = single_communication(2, 2)
        values = evaluate_tasks(
            [("warp_drive", mp, "overlap"), ("deterministic", mp, "overlap")],
            on_error="record",
        )
        assert isinstance(values[0], TaskFailure)
        assert values[0].error == "UnsupportedModelError"
        assert values[1] == evaluate(mp, solver="deterministic")
        with pytest.raises(UnsupportedModelError):
            evaluate_tasks([("warp_drive", mp, "overlap")])

    def test_failures_are_not_memoized(self):
        mp = single_communication(2, 2)
        cache = StructureCache()
        first = evaluate_tasks(
            [(_ExplodingSolver(), mp, "overlap")], cache=cache, on_error="record"
        )
        assert isinstance(first[0], TaskFailure)
        assert cache.misses == 0  # a failure is not a score
        # The same cache retries the computation instead of replaying it.
        again = evaluate_tasks(
            [(_ExplodingSolver(), mp, "overlap")], cache=cache, on_error="record"
        )
        assert isinstance(again[0], TaskFailure)
        assert cache.hits == 0

    def test_in_batch_duplicates_share_the_failure_without_hit_counts(self):
        mp = single_communication(2, 2)
        cache = StructureCache()
        values = evaluate_tasks(
            [(_ExplodingSolver(), mp, "overlap")] * 3,
            cache=cache,
            on_error="record",
        )
        assert all(isinstance(v, TaskFailure) for v in values)
        assert cache.hits == 0 and cache.misses == 0

    def test_record_mode_parallel_matches_serial(self):
        mappings = [single_communication(u, 2) for u in (2, 3, 4)]
        tasks = [
            ("deterministic", mappings[0], "overlap"),
            (_ExplodingSolver(), mappings[1], "overlap"),
            ("deterministic", mappings[2], "overlap"),
        ]
        serial = evaluate_tasks(tasks, n_jobs=1, on_error="record")
        parallel = evaluate_tasks(tasks, n_jobs=2, on_error="record")
        assert serial == parallel

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            evaluate_tasks([], on_error="ignore")

    def test_to_dict_round_trip(self):
        failure = TaskFailure(error="ValueError", message="nope")
        assert failure.to_dict() == {"error": "ValueError", "message": "nope"}


# ----------------------------------------------------------------------
# LRU-bounded structure cache
# ----------------------------------------------------------------------
class TestStructureCacheLRU:
    def test_scores_evict_least_recently_used(self):
        cache = StructureCache(max_entries=2)
        cache.store(("a",), 1.0)
        cache.store(("b",), 2.0)
        assert cache.lookup(("a",)) == 1.0  # refresh a: b is now LRU
        cache.store(("c",), 3.0)  # evicts b
        assert cache.evictions == 1
        assert cache.lookup(("b",)) is None
        assert cache.lookup(("a",)) == 1.0
        assert cache.lookup(("c",)) == 3.0
        assert cache.stats()["scores"] == 2

    def test_nets_and_reachability_bounded(self):
        cache = StructureCache(max_entries=2)
        batch = [make_mapping([[0], [1, 2]], seed=s) for s in range(4)]
        evaluate_many(batch, solver="exponential", model="strict", cache=cache)
        stats = cache.stats()
        assert stats["nets"] <= 2
        assert stats["reachability"] <= 2
        assert stats["evictions"] >= 2  # 4 distinct nets through a 2-slot map

    def test_eviction_changes_no_values(self):
        batch = [make_mapping([[0], [1, 2]], seed=s) for s in range(4)]
        bounded = evaluate_many(
            batch,
            solver="exponential",
            model="strict",
            cache=StructureCache(max_entries=1),
        )
        unbounded = evaluate_many(
            batch, solver="exponential", model="strict", cache=StructureCache()
        )
        assert bounded == unbounded

    def test_unbounded_default_never_evicts(self):
        cache = StructureCache()
        for i in range(100):
            cache.store((i,), float(i))
        assert cache.evictions == 0
        assert cache.stats()["scores"] == 100

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError, match="max_entries"):
            StructureCache(max_entries=0)
