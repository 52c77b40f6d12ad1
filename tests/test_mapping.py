"""Unit tests for mappings, round-robin paths and resource cycle-times."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import Application, Mapping, Platform
from repro.exceptions import InvalidMappingError
from repro.mapping import (
    all_paths,
    cycle_times,
    example_a,
    example_c,
    lcm_all,
    max_cycle_time,
    path_of_row,
    random_mapping,
    random_replication,
    single_communication,
)
from repro.mapping.resources import critical_resource
from repro.types import ExecutionModel

from tests.conftest import make_mapping


class TestRoundRobin:
    def test_lcm_all(self):
        assert lcm_all([1, 2, 3, 1]) == 6
        assert lcm_all([5, 21, 27, 11]) == 10395
        assert lcm_all([4]) == 4

    def test_lcm_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            lcm_all([])
        with pytest.raises(ValueError):
            lcm_all([2, 0])

    def test_path_of_row(self):
        teams = [[0], [1, 2], [3, 4, 5]]
        assert path_of_row(teams, 0) == (0, 1, 3)
        assert path_of_row(teams, 1) == (0, 2, 4)
        assert path_of_row(teams, 5) == (0, 2, 5)

    def test_all_paths_count_is_lcm(self):
        """Proposition 1: the number of distinct paths is lcm(m_i)."""
        teams = [[0], [1, 2], [3, 4, 5]]
        paths = all_paths(teams)
        assert len(paths) == 6
        assert len(set(paths)) == 6

    def test_paths_repeat_after_m(self):
        teams = [[0, 1], [2, 3, 4]]
        assert path_of_row(teams, 6) == path_of_row(teams, 0)
        assert path_of_row(teams, 7) == path_of_row(teams, 1)


class TestMappingValidation:
    def test_processor_in_two_stages_rejected(self):
        app = Application.from_work([1.0, 1.0], files=[1.0])
        plat = Platform.homogeneous(3, 1.0, 1.0)
        with pytest.raises(InvalidMappingError, match="at most one stage"):
            Mapping(app, plat, teams=[[0, 1], [1, 2]])

    def test_empty_team_rejected(self):
        app = Application.from_work([1.0, 1.0], files=[1.0])
        plat = Platform.homogeneous(3, 1.0, 1.0)
        with pytest.raises(InvalidMappingError, match="empty team"):
            Mapping(app, plat, teams=[[0], []])

    def test_duplicate_in_team_rejected(self):
        app = Application.from_work([1.0])
        plat = Platform.homogeneous(2, 1.0, 1.0)
        with pytest.raises(InvalidMappingError, match="duplicates"):
            Mapping(app, plat, teams=[[0, 0]])

    def test_out_of_range_processor_rejected(self):
        app = Application.from_work([1.0])
        plat = Platform.homogeneous(2, 1.0, 1.0)
        with pytest.raises(InvalidMappingError, match="outside"):
            Mapping(app, plat, teams=[[5]])

    def test_team_count_must_match_stages(self):
        app = Application.from_work([1.0, 1.0], files=[1.0])
        plat = Platform.homogeneous(3, 1.0, 1.0)
        with pytest.raises(InvalidMappingError, match="teams"):
            Mapping(app, plat, teams=[[0]])


class TestMappingStructure:
    def test_replication_and_rows(self, three_stage_mixed):
        assert three_stage_mixed.replication == (1, 2, 4)
        assert three_stage_mixed.n_rows == 4

    def test_processor_lookup(self, three_stage_mixed):
        mp = three_stage_mixed
        assert mp.processor(0, 3) == 0
        assert mp.processor(1, 3) == 2
        assert mp.processor(2, 3) == 6

    def test_rows_of(self, three_stage_mixed):
        mp = three_stage_mixed
        assert mp.rows_of(1, 1) == [0, 2]
        assert mp.rows_of(1, 2) == [1, 3]
        assert mp.rows_of(2, 5) == [2]

    def test_stage_of(self, three_stage_mixed):
        assert three_stage_mixed.stage_of(2) == 1
        with pytest.raises(InvalidMappingError):
            three_stage_mixed.stage_of(99)

    def test_senders_receivers(self, three_stage_mixed):
        mp = three_stage_mixed
        # Stage-2 processor 3 serves rows 0; its sender at stage 1 is slot 0.
        assert mp.senders_to(2, 3) == [1]
        assert mp.receivers_from(1, 1) == [3, 5]
        assert mp.senders_to(0, 0) == []
        assert mp.receivers_from(2, 3) == []

    def test_comm_component_count(self):
        mp = make_mapping([list(range(0, 4)), list(range(4, 10))])
        assert mp.comm_component_count(0) == math.gcd(4, 6)

    def test_times_and_rates(self):
        mp = make_mapping(
            [[0], [1]], works=[6.0, 3.0], files=[10.0],
            speeds=[2.0, 3.0], bandwidth=5.0,
        )
        assert mp.compute_time(0, 0) == 3.0
        assert mp.compute_time(1, 1) == 1.0
        assert mp.comm_time(0, 0, 1) == 2.0
        assert mp.compute_rate(1, 1) == 1.0
        assert mp.comm_rate(0, 0, 1) == 0.5

    def test_used_processors(self, three_stage_mixed):
        assert three_stage_mixed.used_processors == tuple(range(7))

    def test_paths_match_roundrobin(self, three_stage_mixed):
        paths = three_stage_mixed.paths()
        assert paths[0] == (0, 1, 3)
        assert paths[1] == (0, 2, 4)
        assert paths[2] == (0, 1, 5)
        assert paths[3] == (0, 2, 6)


class TestExamples:
    def test_example_a_structure(self):
        """The paper's Example A: 6 paths, teams (1, 2, 3, 1)."""
        mp = example_a()
        assert mp.replication == (1, 2, 3, 1)
        assert mp.n_rows == 6
        # Section 3.1: data set 1 proceeds through P0, P1, P3, P6 and data
        # set 2 through P0, P2, P4, P6.
        assert mp.path(0) == (0, 1, 3, 6)
        assert mp.path(1) == (0, 2, 4, 6)

    def test_example_c_structure(self):
        """Example C: (5, 21, 27, 11); second comm has g=3, 7x9 pattern."""
        mp = example_c()
        assert mp.replication == (5, 21, 27, 11)
        assert mp.n_rows == 10395
        assert mp.comm_component_count(1) == 3
        u, v = 21 // 3, 27 // 3
        assert (u, v) == (7, 9)
        # 55 copies of the pattern per component (paper Fig. 7).
        assert mp.n_rows // (3 * u * v) == 55

    def test_single_communication(self):
        mp = single_communication(3, 4, comm_time=2.0)
        assert mp.replication == (3, 4)
        assert mp.comm_time(0, 0, 3) == 2.0
        assert mp.compute_time(0, 0) < 1e-5


class TestResources:
    def test_cycle_times_unreplicated_chain(self):
        mp = make_mapping([[0], [1]], works=[2.0, 4.0], files=[3.0])
        rc = {r.proc: r for r in cycle_times(mp)}
        assert rc[0].c_comp == 2.0
        assert rc[0].c_out == 3.0
        assert rc[0].c_in == 0.0
        assert rc[1].c_in == 3.0
        assert rc[1].c_comp == 4.0

    def test_replication_divides_busy_time(self):
        mp = make_mapping([[0], [1, 2]], works=[1.0, 4.0], files=[2.0])
        rc = {r.proc: r for r in cycle_times(mp)}
        # Each stage-2 processor touches every other data set.
        assert rc[1].c_comp == 2.0
        assert rc[1].c_in == 1.0
        # P0 sends every data set.
        assert rc[0].c_out == 2.0

    def test_exec_time_models(self):
        mp = make_mapping([[0], [1]], works=[2.0, 4.0], files=[3.0])
        rc = {r.proc: r for r in cycle_times(mp)}
        assert rc[1].exec_time(ExecutionModel.OVERLAP) == 4.0
        assert rc[1].exec_time(ExecutionModel.STRICT) == 7.0

    def test_mct_is_period_without_replication(self):
        """Section 2.3: without replication, ρ = 1/Mct exactly."""
        from repro.core import deterministic_throughput

        mp = make_mapping(
            [[0], [1], [2]], works=[2.0, 5.0, 1.0], files=[1.0, 4.0]
        )
        for model in ExecutionModel:
            mct = max_cycle_time(mp, model)
            rho = deterministic_throughput(mp, model)
            assert rho == pytest.approx(1.0 / mct, rel=1e-9)

    def test_slowest_teammate_convention(self):
        mp = make_mapping(
            [[0], [1, 2]], works=[1.0, 4.0], files=[1e-9], speeds=[1.0, 4.0, 1.0]
        )
        fast = {r.proc: r for r in cycle_times(mp, use_slowest_teammate=False)}
        slow = {r.proc: r for r in cycle_times(mp, use_slowest_teammate=True)}
        # P1 (speed 4) is faster than its teammate P2 (speed 1).
        assert fast[1].c_comp == pytest.approx(0.5)
        assert slow[1].c_comp == pytest.approx(2.0)  # paced by the slow teammate

    def test_critical_resource_identity(self):
        mp = make_mapping([[0], [1]], works=[1.0, 9.0], files=[1.0])
        crit = critical_resource(mp, "overlap")
        assert crit.proc == 1 and crit.stage == 1

    def test_mct_bounds_bottleneck_throughput(self):
        """``ρ <= 1/Mct``: the slowest component paces every row."""
        from repro.core import deterministic_throughput
        from repro.application import random_application
        from repro.platform import random_platform

        for seed in range(8):
            r = np.random.default_rng(seed)
            app = random_application(3, r)
            plat = random_platform(8, r)
            mp = random_mapping(app, plat, r)
            bottleneck = deterministic_throughput(mp, "overlap")
            mct = max_cycle_time(mp, "overlap")
            assert bottleneck <= 1.0 / mct * (1 + 1e-9)


class TestGenerators:
    def test_random_replication_bounds(self, rng):
        reps = random_replication(4, 10, rng)
        assert len(reps) == 4
        assert sum(reps) <= 10
        assert min(reps) >= 1

    def test_random_replication_needs_enough_processors(self, rng):
        with pytest.raises(InvalidMappingError):
            random_replication(5, 3, rng)

    def test_random_mapping_valid(self, rng):
        app = Application.uniform(3, 1.0, 1.0)
        plat = Platform.homogeneous(9, 1.0, 1.0)
        mp = random_mapping(app, plat, rng)
        assert mp.n_stages == 3
        # Validation happened at construction; teams are disjoint.
        procs = [p for t in mp.teams for p in t]
        assert len(procs) == len(set(procs))

    def test_random_mapping_fixed_replication(self, rng):
        app = Application.uniform(2, 1.0, 1.0)
        plat = Platform.homogeneous(6, 1.0, 1.0)
        mp = random_mapping(app, plat, rng, replication=[2, 3])
        assert mp.replication == (2, 3)

    def test_random_mapping_rejects_oversubscription(self, rng):
        app = Application.uniform(2, 1.0, 1.0)
        plat = Platform.homogeneous(3, 1.0, 1.0)
        with pytest.raises(InvalidMappingError):
            random_mapping(app, plat, rng, replication=[2, 3])

    def test_max_replication_respected(self, rng):
        for seed in range(10):
            r = np.random.default_rng(seed)
            reps = random_replication(3, 12, r, max_replication=2)
            assert max(reps) <= 2
