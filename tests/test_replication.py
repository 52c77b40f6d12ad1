"""The batched replication kernel and its equivalence contract.

A :class:`~repro.sim.runner.ReplicationSpec` runs every replication of
the Section 2 recurrences in one numpy pass; these tests pin its
bit-identity to the per-stream loop ``[spec(rng) for rng in streams]``
across models, laws, correlation modes and degenerate shapes, plus the
runner/solver plumbing around it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.evaluate import evaluate, get_solver
from repro.evaluate.fingerprint import fingerprint_digest, mapping_fingerprint
from repro.experiments.fig10 import paper_system
from repro.mapping.examples import single_communication, uniform_chain
from repro.sim import (
    OnlineStats,
    ReplicationSpec,
    ReplicationSummary,
    normal_confidence_interval,
    replicate,
    replication_values,
    simulate_system,
    simulate_system_batch,
    throughput_vs_datasets,
)
from repro.sim.sampling import LawSpec

from tests.conftest import make_mapping


def _paper_like():
    """A small replicated pipeline in the shape of the Fig. 10 system."""
    return uniform_chain([1, 3, 2], work=4.0, file_size=2.0)


def _per_stream(spec, n_replications, seed):
    """The spec run once per spawned stream: the batch kernel's oracle."""
    streams = np.random.default_rng(seed).spawn(n_replications)
    return [spec(rng) for rng in streams]


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
        # The batch engine keeps the float64 data-set-major loop, so it is
        # the reference for the serial engine's list passes. The 7-stage
        # Fig. 10 system, replicated (1, 3, 4, 5, 6, 7, 1), makes the lag
        # grow and then fall along the pipeline.
        for mp in (_paper_like(), paper_system()):
            streams = np.random.default_rng(7).spawn(6)
            batch = simulate_system_batch(
                mp, model, n_datasets=40, rngs=streams, law=law,
                correlation=correlation,
            )
            assert len(batch) == 6
            for one, rng in zip(batch, np.random.default_rng(7).spawn(6)):
                serial = simulate_system(
                    mp, model, n_datasets=40, law=law, rng=rng,
                    correlation=correlation,
                )
                assert (
                    serial.completion_times.tobytes()
                    == one.completion_times.tobytes()
                )
                assert serial.latencies.tobytes() == one.latencies.tobytes()
                assert serial.n_events == one.n_events
                assert serial.throughput == one.throughput
                assert (
                    serial.steady_state_throughput()
                    == one.steady_state_throughput()
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
            assert len(batch) == n_reps
            assert all(one.n_processed == 5 for one in batch)
            for one, rng in zip(batch, np.random.default_rng(1).spawn(n_reps)):
                serial = simulate_system(
                    mp, model, n_datasets=5, law="exponential", rng=rng
                )
                assert np.array_equal(
                    serial.completion_times, one.completion_times
                )

    def test_result_view_roundtrip(self):
        # One replication's record stands alone: contiguous arrays, and
        # its own time-ordered view of its completions.
        mp = _paper_like()
        streams = np.random.default_rng(2).spawn(3)
        batch = simulate_system_batch(
            mp, "overlap", n_datasets=20, rngs=streams, law="exponential"
        )
        one = batch[1]
        ref = simulate_system(
            mp, "overlap", n_datasets=20, law="exponential",
            rng=np.random.default_rng(2).spawn(3)[1],
        )
        assert one.completion_times.flags.c_contiguous
        assert np.array_equal(one.completion_times, ref.completion_times)
        assert np.array_equal(one.time_ordered, ref.time_ordered)
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
    def test_engines_byte_identical(self, model):
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
            results = _per_stream(spec, n_replications, seed)
            loop = np.array([r.throughput for r in results])
            vec = replication_values(
                spec, n_replications=n_replications, seed=seed
            )
            assert loop.tobytes() == vec.tobytes()


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
            loop = OnlineStats()
            for result in _per_stream(spec, n_replications, seed):
                loop.push(result.throughput)
            expected = ReplicationSummary(
                n_replications=n_replications,
                mean=loop.mean,
                std=loop.std,
                min=loop.min,
                max=loop.max,
                ci95=normal_confidence_interval(loop.mean, loop.std, loop.n),
            )
            assert replicate(
                spec, n_replications=n_replications, seed=seed
            ) == expected

    def test_spec_is_picklable_callable(self):
        import pickle

        spec = ReplicationSpec(
            single_communication(2, 2), n_datasets=10, law="exponential"
        )
        clone = pickle.loads(pickle.dumps(spec))
        a = spec(np.random.default_rng(5))
        b = clone(np.random.default_rng(5))
        assert np.array_equal(a.completion_times, b.completion_times)


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

    def test_throughput_vs_datasets_rejects_floats_before_run(
        self, monkeypatch
    ):
        def bomb(*args, **kwargs):  # pragma: no cover - must never be called
            raise AssertionError("simulated despite invalid counts")

        monkeypatch.setattr("repro.sim.runner.simulate_system", bomb)
        spec = ReplicationSpec(make_mapping([[0]]), n_datasets=10)
        with pytest.raises(TypeError, match="integers"):
            throughput_vs_datasets(spec, [10, 2.5])
        with pytest.raises(TypeError, match="integers"):
            throughput_vs_datasets(spec, [True, 10])
        with pytest.raises(ValueError, match="positive"):
            throughput_vs_datasets(spec, [0, 10])

    def test_throughput_vs_datasets_spec_matches_callable(self):
        # The sweep is one run of the spec, called at the largest count,
        # read at every prefix.
        mp = single_communication(2, 3)
        spec = ReplicationSpec(mp, "overlap", n_datasets=1, law="exponential")
        run = spec.with_datasets(50)(np.random.default_rng(3))
        assert throughput_vs_datasets(spec, [10, 50], seed=3) == [
            (10, run.throughput_after(10)), (50, run.throughput_after(50)),
        ]


class TestSimulationSolverReplication:
    def test_engines_agree_and_mean_matches_manual(self):
        mp = single_communication(3, 4)
        value = evaluate(
            mp, solver="simulation", n_datasets=60, n_replications=5,
        )
        solver = get_solver("simulation", n_datasets=60, n_replications=5)
        assert solver.solve(mp) == value
        # The solver spawns its streams from [seed, timing digest].
        digest = fingerprint_digest(mapping_fingerprint(mp, "overlap"))
        spec = ReplicationSpec(
            mp, "overlap", n_datasets=60, law=LawSpec.of("exponential")
        )
        loop = OnlineStats()
        for result in _per_stream(spec, 5, [solver.seed, digest]):
            loop.push(result.throughput)
        assert value == loop.mean

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
