"""The batched replication engine and its equivalence contract (PR 5).

The vectorized engine evaluates every replication of the Section 2
recurrences in one numpy pass; these tests pin its bit-identity to the
per-replication loop across models, laws, correlation modes and
degenerate shapes, plus the runner/solver plumbing around it.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.evaluate import evaluate, get_solver
from repro.experiments.fig10 import paper_system
from repro.mapping.examples import single_communication, uniform_chain
from repro.sim import (
    ReplicationSpec,
    replicate,
    replication_values,
    simulate_system,
    simulate_system_batch,
    throughput_vs_datasets,
)
from repro.sim.sampling import LawSpec, SampleBuffer

from tests.conftest import make_mapping


def _paper_like():
    """A small replicated pipeline in the shape of the Fig. 10 system."""
    return uniform_chain([1, 3, 2], work=4.0, file_size=2.0)


class TestBatchKernelBitIdentity:
    @pytest.mark.parametrize("model", ["overlap", "strict"])
    @pytest.mark.parametrize(
        "law,correlation",
        [
            ("deterministic", "independent"),
            ("exponential", "independent"),
            ("exponential", "associated"),
            (LawSpec.of("gamma", shape=2.0), "independent"),
        ],
    )
    def test_rows_match_serial(self, model, law, correlation):
        mp = _paper_like()
        streams = np.random.default_rng(7).spawn(6)
        batch = simulate_system_batch(
            mp, model, n_datasets=40, rngs=streams, law=law,
            correlation=correlation,
        )
        for r, rng in enumerate(np.random.default_rng(7).spawn(6)):
            serial = simulate_system(
                mp, model, n_datasets=40, law=law, rng=rng,
                correlation=correlation,
            )
            assert (
                serial.completion_times.tobytes()
                == batch.completion_times[r].tobytes()
            )
            assert serial.latencies.tobytes() == batch.latencies[r].tobytes()
            assert serial.n_events == batch.n_events
            assert serial.throughput == batch.throughput()[r]
            assert (
                serial.steady_state_throughput()
                == batch.steady_state_throughput()[r]
            )

    @pytest.mark.parametrize("model", ["overlap", "strict"])
    def test_degenerate_shapes(self, model):
        # R=1 batches and a single-stage pipeline (no transfers at all).
        for mp, n_reps in [
            (make_mapping([[0]]), 1),
            (make_mapping([[0], [1, 2]]), 1),
            (make_mapping([[0]], works=[2.0]), 4),
        ]:
            streams = np.random.default_rng(1).spawn(n_reps)
            batch = simulate_system_batch(
                mp, model, n_datasets=5, rngs=streams, law="exponential"
            )
            assert batch.n_replications == n_reps
            assert batch.n_datasets == 5
            for r, rng in enumerate(np.random.default_rng(1).spawn(n_reps)):
                serial = simulate_system(
                    mp, model, n_datasets=5, law="exponential", rng=rng
                )
                assert np.array_equal(
                    serial.completion_times, batch.completion_times[r]
                )

    def test_result_view_roundtrip(self):
        mp = _paper_like()
        streams = np.random.default_rng(2).spawn(3)
        batch = simulate_system_batch(
            mp, "overlap", n_datasets=20, rngs=streams, law="exponential"
        )
        one = batch.result(1)
        ref = simulate_system(
            mp, "overlap", n_datasets=20, law="exponential",
            rng=np.random.default_rng(2).spawn(3)[1],
        )
        assert np.array_equal(one.completion_times, ref.completion_times)
        assert one.throughput == ref.throughput

    def test_validation(self):
        mp = make_mapping([[0]])
        with pytest.raises(ValueError, match="at least one"):
            simulate_system_batch(mp, "overlap", n_datasets=5, rngs=[])
        with pytest.raises(ValueError, match="n_datasets"):
            simulate_system_batch(
                mp, "overlap", n_datasets=0,
                rngs=[np.random.default_rng(0)],
            )


class TestReplicationValues:
    @pytest.mark.parametrize("model", ["overlap", "strict"])
    @pytest.mark.parametrize("estimator", ["total", "steady"])
    def test_engines_byte_identical(self, model, estimator):
        studies = [
            (ReplicationSpec(
                _paper_like(), model, n_datasets=60, law="exponential"
            ), 9, 3),
            # The real Fig. 10 system at 32 replications of 200 data sets.
            (ReplicationSpec(
                paper_system(), model, n_datasets=200, law="exponential"
            ), 32, 11),
        ]
        for spec, n_replications, seed in studies:
            loop = replication_values(
                spec, n_replications=n_replications, seed=seed,
                estimator=estimator, engine="loop",
            )
            vec = replication_values(
                spec, n_replications=n_replications, seed=seed,
                estimator=estimator, engine="vectorized",
            )
            assert loop.tobytes() == vec.tobytes()

    def test_auto_prefers_vectorized_for_spec(self):
        spec = ReplicationSpec(
            single_communication(2, 3), n_datasets=50, law="exponential"
        )
        auto = replication_values(spec, n_replications=4, seed=0)
        vec = replication_values(
            spec, n_replications=4, seed=0, engine="vectorized"
        )
        assert auto.tobytes() == vec.tobytes()

    def test_engine_validation(self):
        spec = ReplicationSpec(make_mapping([[0]]), n_datasets=5)
        with pytest.raises(ValueError, match="unknown engine"):
            replication_values(spec, n_replications=2, engine="warp")
        with pytest.raises(ValueError, match="ReplicationSpec"):
            replication_values(
                lambda rng: None, n_replications=2, engine="vectorized"
            )
        with pytest.raises(ValueError, match="unknown estimator"):
            replication_values(spec, n_replications=2, estimator="median")


class TestReplicateEngines:
    def test_summary_identical_across_engines(self):
        studies = [
            (_paper_like(), 80, 12, 4),
            # The real Fig. 10 system at 32 replications of 200 data sets.
            (paper_system(), 200, 32, 11),
        ]
        for mapping, n_datasets, n_replications, seed in studies:
            spec = ReplicationSpec(
                mapping, "overlap", n_datasets=n_datasets, law="exponential"
            )
            loop = replicate(
                spec, n_replications=n_replications, seed=seed, engine="loop"
            )
            vec = replicate(
                spec, n_replications=n_replications, seed=seed,
                engine="vectorized",
            )
            auto = replicate(spec, n_replications=n_replications, seed=seed)
            assert loop == vec == auto

    def test_callable_still_works_via_auto(self):
        mp = single_communication(2, 3)

        def run(rng):
            return simulate_system(
                mp, "overlap", n_datasets=50, law="exponential", rng=rng
            )

        summary = replicate(run, n_replications=4, seed=0)
        spec_summary = replicate(
            ReplicationSpec(mp, "overlap", n_datasets=50, law="exponential"),
            n_replications=4,
            seed=0,
        )
        assert summary == spec_summary

    def test_spec_is_picklable_callable(self):
        import pickle

        spec = ReplicationSpec(
            single_communication(2, 2), n_datasets=10, law="exponential"
        )
        clone = pickle.loads(pickle.dumps(spec))
        a = spec(np.random.default_rng(5))
        b = clone(np.random.default_rng(5))
        assert np.array_equal(a.completion_times, b.completion_times)

    def test_no_pickle_probe_when_serial(self):
        """The picklability probe must only run on the n_jobs > 1 path."""
        mp = single_communication(2, 2)

        class Unpicklable:
            def __call__(self, rng):
                return simulate_system(
                    mp, "overlap", n_datasets=10, law="exponential", rng=rng
                )

            def __reduce__(self):
                raise AssertionError("pickled on the serial path")

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the fallback warning = failure
            summary = replicate(Unpicklable(), n_replications=2, seed=0)
        assert summary.n_replications == 2

    def test_unpicklable_parallel_falls_back_with_warning(self):
        mp = single_communication(2, 2)
        run = lambda rng: simulate_system(  # noqa: E731 - deliberately local
            mp, "overlap", n_datasets=10, law="exponential", rng=rng
        )
        with pytest.warns(RuntimeWarning, match="not picklable"):
            parallel = replicate(run, n_replications=3, seed=1, n_jobs=2)
        serial = replicate(run, n_replications=3, seed=1)
        assert parallel == serial

    def test_engine_loop_forces_loop_for_spec(self):
        spec = ReplicationSpec(
            single_communication(2, 3), n_datasets=30, law="exponential"
        )
        assert replicate(spec, n_replications=3, seed=2, engine="loop") == \
            replicate(spec, n_replications=3, seed=2, engine="vectorized")


class TestSpecAndSweep:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ReplicationSpec(make_mapping([[0]]), n_datasets=0)

    def test_with_datasets(self):
        spec = ReplicationSpec(make_mapping([[0]]), n_datasets=10)
        assert spec.with_datasets(25).n_datasets == 25
        assert spec.with_datasets(25).mapping is spec.mapping

    def test_throughput_vs_datasets_accepts_numpy_ints(self):
        spec = ReplicationSpec(
            single_communication(2, 3), n_datasets=1, law="exponential"
        )
        series = throughput_vs_datasets(
            spec, np.array([10, 100], dtype=np.int64), seed=0
        )
        assert [k for k, _ in series] == [10, 100]
        assert all(isinstance(k, int) for k, _ in series)

    def test_throughput_vs_datasets_rejects_floats_before_run(self):
        def bomb(rng, n):  # pragma: no cover - must never be called
            raise AssertionError("run invoked despite invalid counts")

        with pytest.raises(TypeError, match="integers"):
            throughput_vs_datasets(bomb, [10, 2.5])
        with pytest.raises(TypeError, match="integers"):
            throughput_vs_datasets(bomb, [True, 10])
        with pytest.raises(ValueError, match="positive"):
            throughput_vs_datasets(bomb, [0, 10])

    def test_throughput_vs_datasets_spec_matches_callable(self):
        mp = single_communication(2, 3)
        spec = ReplicationSpec(mp, "overlap", n_datasets=1, law="exponential")

        def run(rng, n):
            return simulate_system(
                mp, "overlap", n_datasets=n, law="exponential", rng=rng
            )

        assert throughput_vs_datasets(spec, [10, 50], seed=3) == \
            throughput_vs_datasets(run, [10, 50], seed=3)


class TestSampleBufferBlocks:
    def test_draw_blocks_matches_flat_stream(self):
        from repro.distributions import Exponential

        a = SampleBuffer(Exponential(1.0), np.random.default_rng(9))
        b = SampleBuffer(Exponential(1.0), np.random.default_rng(9))
        blocks = a.draw_blocks(4, 6)
        flat = b.draw_block(24)
        assert blocks.shape == (4, 6)
        assert np.array_equal(blocks.ravel(), flat)


class TestSimulationSolverReplication:
    def test_engines_agree_and_mean_matches_manual(self):
        mp = single_communication(3, 4)
        loop = evaluate(
            mp, solver="simulation", n_datasets=60, n_replications=5,
            engine="loop",
        )
        vec = evaluate(
            mp, solver="simulation", n_datasets=60, n_replications=5,
            engine="vectorized",
        )
        assert loop == vec
        solver = get_solver("simulation", n_datasets=60, n_replications=5)
        assert solver.solve(mp) == loop

    def test_single_run_unchanged(self):
        mp = single_communication(3, 4)
        baseline = evaluate(mp, solver="simulation", n_datasets=80)
        spec = get_solver("simulation", n_datasets=80)
        result = simulate_system(
            mp, "overlap", n_datasets=80,
            law=LawSpec.of("exponential"),
            rng=spec.rng_for(mp, "overlap"),
        )
        assert baseline == result.throughput

    def test_replication_study_differs_from_single_run(self):
        mp = single_communication(3, 4)
        single = evaluate(mp, solver="simulation", n_datasets=60)
        study = evaluate(
            mp, solver="simulation", n_datasets=60, n_replications=8
        )
        assert single != study

    def test_validation(self):
        with pytest.raises(ValueError):
            get_solver("simulation", n_replications=0)
