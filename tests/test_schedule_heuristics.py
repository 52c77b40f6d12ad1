"""Tests for periodic-schedule extraction and the mapping heuristics."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Application, Platform
from repro.core import overlap_throughput, tpn_throughput_deterministic
from repro.core.schedule import periodic_schedule
from repro.exceptions import StructuralError
from repro.mapping.heuristics import (
    balanced_replication,
    greedy_hill_climb,
    random_restart_search,
)
from repro.petri import build_overlap_tpn, build_strict_tpn

from tests.conftest import make_mapping


class TestPeriodicSchedule:
    def test_single_processor(self):
        mp = make_mapping([[0]], works=[2.0])
        sched = periodic_schedule(build_overlap_tpn(mp))
        assert sched.cycle_time == pytest.approx(2.0)
        assert sched.cyclicity == 1
        assert sched.n_transitions == 1

    def test_cycle_time_matches_critical_cycle(self):
        """λ of the periodic regime is the Section 4 period ``P``.

        Every transition fires once per λ, the last column has ``m``
        transitions, so ``ρ = m / λ`` — the paper's ``m / P``.
        """
        for seed in range(4):
            mp = make_mapping([[0], [1, 2]], seed=seed)
            tpn = build_strict_tpn(mp)
            sched = periodic_schedule(tpn)
            rho = tpn_throughput_deterministic(tpn)
            assert rho == pytest.approx(tpn.n_rows / sched.cycle_time, rel=1e-6)

    def test_overlap_symmetric_net(self):
        mp = make_mapping([[0, 1], [2, 3, 4]])
        tpn = build_overlap_tpn(mp)
        sched = periodic_schedule(tpn)
        rho = overlap_throughput(mp, "deterministic")
        assert rho == pytest.approx(tpn.n_rows / sched.cycle_time, rel=1e-6)

    def test_offsets_shape_and_range(self):
        mp = make_mapping([[0], [1]], works=[1.0, 2.0], files=[1.5])
        tpn = build_strict_tpn(mp)
        sched = periodic_schedule(tpn)
        assert sched.offsets.shape == (tpn.n_transitions, sched.cyclicity)
        assert (sched.offsets >= 0).all()
        assert sched.block_length == pytest.approx(
            sched.cyclicity * sched.cycle_time
        )

    def test_heterogeneous_branches_raise(self):
        """Diverging component rates have no common periodic regime."""
        mp = make_mapping(
            [[0], [1, 2]], works=[0.01, 2.0], files=[0.01],
            speeds=[100.0, 10.0, 0.5],
        )
        tpn = build_overlap_tpn(mp)
        with pytest.raises(StructuralError):
            periodic_schedule(tpn, max_rounds=120)

    def test_transient_reported(self):
        mp = make_mapping([[0], [1]], works=[1.0, 3.0], files=[0.5])
        sched = periodic_schedule(build_strict_tpn(mp))
        assert sched.transient_rounds >= 0


class TestHeuristics:
    def _instance(self, seed: int = 0):
        rng = np.random.default_rng(seed)
        app = Application.from_work(
            rng.uniform(1.0, 8.0, 3).tolist(), rng.uniform(0.1, 0.5, 2).tolist()
        )
        platform = Platform.from_speeds(
            rng.uniform(1.0, 3.0, 9).tolist(), bandwidth=5.0
        )
        return app, platform

    def test_balanced_replication_valid(self):
        app, platform = self._instance()
        result = balanced_replication(app, platform)
        assert result.throughput > 0
        assert result.mapping.n_stages == app.n_stages
        # Heavier stages get at least as many replicas.
        reps = result.mapping.replication
        works = app.works
        heaviest = int(np.argmax(works))
        lightest = int(np.argmin(works))
        assert reps[heaviest] >= reps[lightest]

    def test_balanced_needs_enough_processors(self):
        app = Application.uniform(4, 1.0, 1.0)
        platform = Platform.homogeneous(2, 1.0, 1.0)
        from repro.exceptions import InvalidMappingError

        with pytest.raises(InvalidMappingError):
            balanced_replication(app, platform)

    def test_hill_climb_never_worse_than_start(self):
        app, platform = self._instance(3)
        from repro.mapping.generators import random_mapping

        rng = np.random.default_rng(1)
        start = random_mapping(app, platform, rng, max_replication=3)
        rho0 = overlap_throughput(start, "deterministic")
        result = greedy_hill_climb(
            app, platform, seed=1, start=start, max_steps=20
        )
        assert result.throughput >= rho0 * (1 - 1e-12)

    def test_restarts_at_least_as_good_as_baseline(self):
        app, platform = self._instance(7)
        base = balanced_replication(app, platform)
        best = random_restart_search(app, platform, n_restarts=3, seed=2)
        assert best.throughput >= base.throughput * (1 - 1e-12)
        assert best.evaluations > base.evaluations

    def test_exponential_scoring_below_deterministic(self):
        app, platform = self._instance(11)
        det = random_restart_search(
            app, platform, mode="deterministic", n_restarts=2, seed=3
        )
        exp = random_restart_search(
            app, platform, mode="exponential", n_restarts=2, seed=3
        )
        # The exponential score of any mapping is below its deterministic
        # score (Theorem 7), hence also for the two optima.
        assert exp.throughput <= det.throughput * (1 + 1e-9)


#: Outputs of the serial one-candidate-at-a-time heuristics on the
#: ``_instance`` systems below, re-recorded when the objective became the
#: rate of the slowest component (``m / P``) instead of the branch sum:
#: seed -> (hill-climb rho, restart rho, restart evaluation count).
_PRE_REFACTOR = {
    0: (0.9009393415885104, 1.1051764788312815, 44),
    3: (1.1142611559905748, 1.3485229372744743, 43),
    7: (0.6221028276700958, 0.7044103462728993, 40),
    11: (1.0947545048530016, 1.0947545048530016, 38),
}


class TestBatchedSearchRegression:
    """The evaluate_many rewrite preserves trajectories and saves work."""

    @pytest.mark.parametrize("seed", sorted(_PRE_REFACTOR))
    def test_same_optimum_with_fewer_evaluator_misses(self, seed):
        app, platform = TestHeuristics._instance(None, seed)
        hc = greedy_hill_climb(app, platform, seed=1, max_steps=20)
        rr = random_restart_search(app, platform, n_restarts=3, seed=2)
        rho_hc, rho_rr, old_evals = _PRE_REFACTOR[seed]
        # Bit-identical optima on fixed seeds ...
        assert hc.throughput == rho_hc
        assert rr.throughput == rho_rr
        # ... the same request stream as the serial implementation ...
        assert rr.evaluations == old_evals
        assert rr.evaluations == rr.cache_hits + rr.cache_misses
        # ... and strictly fewer actual evaluator runs (memo cache).
        assert rr.cache_misses < old_evals
        assert rr.cache_hits > 0

    def test_n_jobs_same_optimum(self):
        app, platform = TestHeuristics._instance(None, 0)
        serial = random_restart_search(app, platform, n_restarts=2, seed=2)
        fanned = random_restart_search(
            app, platform, n_restarts=2, seed=2, n_jobs=2
        )
        assert fanned.throughput == serial.throughput

    def test_shared_cache_across_searches(self):
        from repro.evaluate import StructureCache

        app, platform = TestHeuristics._instance(None, 3)
        cache = StructureCache()
        first = random_restart_search(
            app, platform, n_restarts=1, seed=2, cache=cache
        )
        second = random_restart_search(
            app, platform, n_restarts=1, seed=2, cache=cache
        )
        assert second.throughput == first.throughput
        # The second run re-requests only memoized candidates.
        assert second.cache_misses == 0
        assert second.evaluations == first.evaluations


class TestSatelliteFixes:
    def test_balanced_replication_overshoot_never_empties_a_team(self):
        # Three feather-weight stages force per-stage clamping to 1 while
        # the heavy stage's floor share overshoots M; the old trim loop
        # decremented the least-loaded stage to zero replicas.
        app = Application.from_work([0.1, 0.1, 0.1, 10.0], [0.1, 0.1, 0.1])
        platform = Platform.from_speeds([1.0] * 5, bandwidth=5.0)
        result = balanced_replication(app, platform)
        reps = result.mapping.replication
        assert min(reps) >= 1
        assert sum(reps) <= platform.n_processors
        assert result.throughput > 0

    def test_neighbours_skip_degenerate_empty_team_swaps(self):
        from repro.mapping.heuristics import _neighbours
        from repro.mapping.mapping import Mapping as _Mapping

        mp = make_mapping([[0], [1], [2]])
        # Forge an (invalid) mapping with an empty middle team, bypassing
        # validation — the degenerate shape the guard protects against.
        degenerate = _Mapping.__new__(_Mapping)
        degenerate.application = mp.application
        degenerate.platform = mp.platform
        degenerate.teams = ((0,), (), (2,))
        rng = np.random.default_rng(0)
        moves = _neighbours(degenerate, rng)  # must not raise
        assert isinstance(moves, list)
