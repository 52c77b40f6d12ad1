"""Tests for the declarative campaign subsystem (`repro.campaign`).

Covers the spec round-trip, the deterministic grid expansion and its
fingerprints, the crash-safe store, the runner's resume/parallel
guarantees (the PR's acceptance criteria), and the presets.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import (
    CampaignSpec,
    ResultStore,
    ScenarioSpec,
    SystemSpec,
    available_presets,
    campaign_report,
    campaign_status,
    derive_seed,
    expand,
    get_preset,
    run_campaign,
)
from repro.campaign.grid import expand_scenario
from repro.evaluate import StructureCache, evaluate, evaluate_tasks, get_solver
from repro.exceptions import CampaignError
from repro.mapping.examples import named_system, single_communication


def tiny_spec(seed: int = 0) -> CampaignSpec:
    """A 4-unit deterministic campaign used across the tests."""
    return CampaignSpec(
        name="tiny",
        seed=seed,
        scenarios=[
            ScenarioSpec(
                name="tiny/pattern",
                system=SystemSpec("single_communication", {"comm_time": 1.0}),
                solver="deterministic",
                axes={"system.u": [2, 3], "system.v": [2, 3]},
            ),
        ],
    )


# ----------------------------------------------------------------------
# Specs
# ----------------------------------------------------------------------
class TestSpec:
    def test_json_round_trip(self):
        spec = tiny_spec(seed=42)
        again = CampaignSpec.from_json(spec.to_json())
        assert again == spec
        assert CampaignSpec.from_dict(json.loads(spec.to_json())) == spec

    def test_round_trip_with_tuple_values(self):
        # Tuples normalize to lists at construction, so the documented
        # invariant from_dict(spec.to_dict()) == spec holds either way.
        spec = CampaignSpec(
            name="tuples",
            scenarios=[
                ScenarioSpec(
                    name="t/s",
                    system=SystemSpec(
                        "uniform_chain", {"replication": (1, 2)}
                    ),
                    solver="simulation",
                    options={"n_datasets": 20, "law_params": (("shape", 2.0),)},
                    axes={"solver.n_datasets": (20, 40)},
                ),
            ],
        )
        assert CampaignSpec.from_dict(spec.to_dict()) == spec
        assert CampaignSpec.from_json(spec.to_json()) == spec

    def test_malformed_shapes_rejected(self):
        base = tiny_spec().to_dict()
        bad_scenarios = dict(base, scenarios="oops")
        with pytest.raises(CampaignError, match="must be a list"):
            CampaignSpec.from_dict(bad_scenarios)
        bad_entry = dict(base, scenarios=[[1, 2]])
        with pytest.raises(CampaignError, match="must be an object"):
            CampaignSpec.from_dict(bad_entry)
        bad_params = json.loads(json.dumps(base))
        bad_params["scenarios"][0]["system"]["params"] = [1, 2]
        with pytest.raises(CampaignError, match="must be an object"):
            CampaignSpec.from_dict(bad_params)
        bad_options = json.loads(json.dumps(base))
        bad_options["scenarios"][0]["options"] = [1, 2]
        with pytest.raises(CampaignError, match="must be an object"):
            CampaignSpec.from_dict(bad_options)

    def test_scalar_axis_value_rejected(self):
        data = tiny_spec().to_dict()
        # A natural spec-file mistake: scalar instead of a list. It must
        # fail validation, not explode "exponential" into characters.
        data["scenarios"][0]["axes"]["solver"] = "exponential"
        with pytest.raises(CampaignError, match="non-empty"):
            CampaignSpec.from_dict(data)

    def test_report_orders_numeric_axes_numerically(self, tmp_path):
        spec = CampaignSpec(
            name="order",
            scenarios=[
                ScenarioSpec(
                    name="order/n",
                    system=SystemSpec(
                        "single_communication", {"u": 2, "v": 2}
                    ),
                    solver="simulation",
                    axes={"solver.n_datasets": [1000, 100, 500]},
                ),
            ],
        )
        store = ResultStore(tmp_path / "o.jsonl")
        run_campaign(spec, store)
        (report,) = campaign_report(store)
        assert [r["solver.n_datasets"] for r in report.rows] == [100, 500, 1000]

    def test_non_integer_seed_rejected(self):
        data = tiny_spec().to_dict()
        data["seed"] = 7.9
        with pytest.raises(CampaignError, match="seed"):
            CampaignSpec.from_dict(data)
        data["seed"] = True  # bool is not a campaign seed either
        with pytest.raises(CampaignError, match="seed"):
            CampaignSpec.from_dict(data)

    def test_unknown_keys_rejected(self):
        data = tiny_spec().to_dict()
        data["oops"] = 1
        with pytest.raises(CampaignError, match="oops"):
            CampaignSpec.from_dict(data)
        sdata = tiny_spec().scenarios[0].to_dict()
        sdata["extra"] = 1
        with pytest.raises(CampaignError, match="extra"):
            ScenarioSpec.from_dict(sdata)

    def test_validation_errors(self):
        with pytest.raises(CampaignError, match="kind"):
            SystemSpec("nope")
        with pytest.raises(CampaignError, match="name"):
            SystemSpec("named", {})
        with pytest.raises(CampaignError, match="axis"):
            ScenarioSpec(
                name="s", system=SystemSpec("named", {"name": "example_a"}),
                axes={"bogus_axis": [1]},
            )
        with pytest.raises(CampaignError, match="model"):
            ScenarioSpec(
                name="s", system=SystemSpec("named", {"name": "example_a"}),
                model="half-open",
            )
        with pytest.raises(CampaignError, match="duplicate"):
            CampaignSpec(
                name="c",
                scenarios=[
                    tiny_spec().scenarios[0], tiny_spec().scenarios[0],
                ],
            )
        with pytest.raises(CampaignError, match="at least one scenario"):
            CampaignSpec(name="empty", scenarios=[])

    def test_build_all_kinds(self):
        named = SystemSpec("named", {"name": "example_a"}).build()
        assert named.teams == named_system("example_a").teams
        sc = SystemSpec(
            "single_communication", {"u": 2, "v": 3, "comm_time": 2.0}
        ).build()
        assert sc.replication == (2, 3)
        assert sc.comm_time(0, 0, 2) == 2.0
        chain = SystemSpec(
            "chain",
            {
                "works": [1.0, 2.0], "files": [0.5],
                "speeds": [1.0, 1.0, 2.0], "teams": [[0], [1, 2]],
            },
        ).build()
        assert chain.replication == (1, 2)
        uni = SystemSpec(
            "uniform_chain", {"replication": [1, 2], "work": 3.0}
        ).build()
        assert uni.replication == (1, 2)
        assert uni.compute_time(0, 0) == 3.0

    def test_build_unknown_named_system_is_campaign_error(self):
        with pytest.raises(CampaignError, match="cannot be built"):
            SystemSpec("named", {"name": "atlantis"}).build()
        with pytest.raises(CampaignError, match="cannot be built"):
            # library-level mapping validation surfaces the same way
            SystemSpec(
                "chain",
                {"works": [1.0, 1.0], "speeds": [1.0], "teams": [[0], [0]]},
            ).build()

    def test_build_missing_param(self):
        with pytest.raises(CampaignError, match="missing parameter"):
            SystemSpec("single_communication", {"u": 2}).build()

    def test_build_unknown_param(self):
        with pytest.raises(CampaignError, match="invalid parameters"):
            SystemSpec(
                "single_communication", {"u": 2, "v": 2, "warp": 9}
            ).build()
        # The dict-read kinds guard their keys too (a typo must not
        # silently fall back to a default).
        with pytest.raises(CampaignError, match="bandwith"):
            SystemSpec(
                "chain",
                {
                    "works": [1.0, 1.0], "speeds": [1.0, 1.0],
                    "teams": [[0], [1]], "bandwith": 8.0,
                },
            ).build()
        with pytest.raises(CampaignError, match="replication_factor"):
            SystemSpec(
                "uniform_chain",
                {"replication": [1, 2], "replication_factor": 3},
            ).build()

    def test_build_non_integer_counts_rejected(self):
        with pytest.raises(CampaignError, match="must be an integer"):
            SystemSpec("single_communication", {"u": "two", "v": 2}).build()
        with pytest.raises(CampaignError, match="must be an integer"):
            SystemSpec("uniform_chain", {"replication": ["x"]}).build()
        # A float is rejected, never silently truncated into a different
        # system than the one the store would claim.
        with pytest.raises(CampaignError, match="must be an integer"):
            SystemSpec("single_communication", {"u": 2.5, "v": 2}).build()


# ----------------------------------------------------------------------
# Grid expansion
# ----------------------------------------------------------------------
class TestGrid:
    def test_deterministic_order_and_count(self):
        spec = tiny_spec()
        units = expand(spec)
        assert len(units) == 4
        assert [u.params for u in units] == [
            {"system.u": 2, "system.v": 2},
            {"system.u": 2, "system.v": 3},
            {"system.u": 3, "system.v": 2},
            {"system.u": 3, "system.v": 3},
        ]
        # Same spec, same fingerprints — run-to-run and object-to-object.
        assert [u.fingerprint for u in expand(tiny_spec())] == [
            u.fingerprint for u in units
        ]

    def test_fingerprint_ignores_axis_insertion_order(self):
        s1 = ScenarioSpec(
            name="s",
            system=SystemSpec("single_communication", {}),
            axes={"system.u": [2], "system.v": [3]},
        )
        s2 = ScenarioSpec(
            name="s",
            system=SystemSpec("single_communication", {}),
            axes={"system.v": [3], "system.u": [2]},
        )
        (u1,) = expand_scenario("c", 0, s1)
        (u2,) = expand_scenario("c", 0, s2)
        assert u1.fingerprint == u2.fingerprint
        assert u1.seed == u2.seed

    def test_seed_derivation_is_content_keyed(self):
        units = expand(tiny_spec(seed=1))
        assert len({u.seed for u in units}) == len(units)
        assert [u.seed for u in units] == [
            derive_seed(1, u.fingerprint) for u in units
        ]
        # Deterministic units: different base seed changes the derived
        # seeds but not the fingerprints (their value is seed-free, so
        # stores from different seeds may legitimately dedup).
        units5 = expand(tiny_spec(seed=5))
        assert [u.fingerprint for u in units5] == [u.fingerprint for u in units]
        assert all(a.seed != b.seed for a, b in zip(units, units5))

    def test_units_are_hashable_and_set_friendly(self):
        units = expand(tiny_spec())
        assert len(set(units)) == len(units)
        assert all(hash(u) == hash(u.fingerprint) for u in units)

    def test_non_json_axis_values_rejected(self):
        import numpy as np

        scen = ScenarioSpec(
            name="np",
            system=SystemSpec("single_communication", {"v": 2}),
            axes={"system.u": list(np.arange(2, 4))},
        )
        with pytest.raises(CampaignError, match="JSON-serializable"):
            expand_scenario("c", 0, scen)

    def test_fingerprint_is_campaign_keyed(self):
        scen = tiny_spec().scenarios[0]
        units_a = expand_scenario("campaign-a", 0, scen)
        units_b = expand_scenario("campaign-b", 0, scen)
        # Identical content under different campaign names are distinct
        # units: sharing a store never conflates two campaigns (their
        # report filters and status counts would disagree otherwise).
        assert {u.fingerprint for u in units_a}.isdisjoint(
            u.fingerprint for u in units_b
        )

    def test_simulation_fingerprint_is_seed_keyed(self):
        scen = ScenarioSpec(
            name="sim",
            system=SystemSpec("single_communication", {"u": 2, "v": 2}),
            solver="simulation",
            options={"n_datasets": 50},
        )
        (u1,) = expand_scenario("c", 1, scen)
        (u2,) = expand_scenario("c", 2, scen)
        # A stochastic unit's value depends on the base seed, so two
        # seeds are two units — resume can never serve one as the other.
        assert u1.fingerprint != u2.fingerprint
        # With a pinned stream seed the unit is deterministic again.
        pinned = ScenarioSpec(
            name="sim",
            system=SystemSpec("single_communication", {"u": 2, "v": 2}),
            solver="simulation",
            options={"n_datasets": 50, "seed": 4},
        )
        (p1,) = expand_scenario("c", 1, pinned)
        (p2,) = expand_scenario("c", 2, pinned)
        assert p1.fingerprint == p2.fingerprint

    def test_simulation_seed_injection(self):
        scen = ScenarioSpec(
            name="sim",
            system=SystemSpec("single_communication", {"u": 2, "v": 2}),
            solver="simulation",
            options={"n_datasets": 50},
        )
        (unit,) = expand_scenario("c", 3, scen)
        assert unit.options["seed"] == unit.seed
        # A pinned seed is respected (and fingerprinted).
        pinned = ScenarioSpec(
            name="sim",
            system=SystemSpec("single_communication", {"u": 2, "v": 2}),
            solver="simulation",
            options={"n_datasets": 50, "seed": 9},
        )
        (pu,) = expand_scenario("c", 3, pinned)
        assert pu.options["seed"] == 9
        assert pu.fingerprint != unit.fingerprint

    def test_unknown_solver_and_option(self):
        bad_solver = ScenarioSpec(
            name="s",
            system=SystemSpec("single_communication", {"u": 2, "v": 2}),
            axes={"solver": ["quantum"]},
        )
        with pytest.raises(CampaignError, match="unknown solver"):
            expand_scenario("c", 0, bad_solver)
        bad_option = ScenarioSpec(
            name="s",
            system=SystemSpec("single_communication", {"u": 2, "v": 2}),
            options={"n_datasets": 5},  # not a deterministic-solver option
        )
        with pytest.raises(CampaignError, match="n_datasets; allowed: none"):
            expand_scenario("c", 0, bad_option)

    def test_model_and_solver_axes(self):
        scen = ScenarioSpec(
            name="s",
            system=SystemSpec("single_communication", {"u": 2, "v": 2}),
            axes={
                "model": ["overlap", "strict"],
                "solver": ["deterministic", "exponential"],
            },
        )
        units = expand_scenario("c", 0, scen)
        assert [(u.model, u.solver) for u in units] == [
            ("overlap", "deterministic"),
            ("overlap", "exponential"),
            ("strict", "deterministic"),
            ("strict", "exponential"),
        ]
        assert len({u.fingerprint for u in units}) == 4


# ----------------------------------------------------------------------
# Result store
# ----------------------------------------------------------------------
class TestStore:
    def test_append_dedup_reload(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        assert len(store) == 0
        assert store.append({"fingerprint": "aa", "value": 1.0})
        assert not store.append({"fingerprint": "aa", "value": 2.0})
        assert store.append({"fingerprint": "bb", "value": 3.0})
        again = ResultStore(path)
        assert len(again) == 2
        assert "aa" in again and again.get("aa")["value"] == 1.0
        assert again.fingerprints() == ("aa", "bb")

    def test_torn_trailing_line_is_dropped(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.append({"fingerprint": "aa", "value": 1.0})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"fingerprint": "bb", "val')  # killed mid-write
        resumed = ResultStore(path)
        assert len(resumed) == 1
        assert resumed.dropped_lines == 1
        # The store stays appendable after the torn line.
        assert resumed.append({"fingerprint": "bb", "value": 2.0})
        assert len(ResultStore(path)) == 2

    def test_missing_final_newline_repaired_on_load(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.append({"fingerprint": "aa", "value": 1.0})
        store.append({"fingerprint": "bb", "value": 2.0})
        # A crash that lost only the final terminator:
        raw = path.read_bytes()
        path.write_bytes(raw[:-1])
        reloaded = ResultStore(path)
        assert len(reloaded) == 2  # record kept, not dropped
        # Loading alone restores the line-per-record invariant.
        assert path.read_bytes() == raw
        assert len(path.read_text().splitlines()) == 2

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "store.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("not json at all\n")
            fh.write('{"fingerprint": "aa", "value": 1.0}\n')
        with pytest.raises(CampaignError, match="line 1"):
            ResultStore(path)

    def test_record_without_fingerprint_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        with pytest.raises(CampaignError, match="fingerprint"):
            store.append({"value": 1.0})


# ----------------------------------------------------------------------
# Runner: the acceptance criteria
# ----------------------------------------------------------------------
class TestRunner:
    def test_run_resume_and_report(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(tmp_path / "c.jsonl")
        summary = run_campaign(spec, store)
        assert (summary.total, summary.executed, summary.skipped) == (4, 4, 0)
        report_cold = [r.render() for r in campaign_report(store)]

        # Re-running without --resume is refused (populated store).
        with pytest.raises(CampaignError, match="resume"):
            run_campaign(spec, ResultStore(tmp_path / "c.jsonl"))

        # --resume executes 0 units and reproduces the same report.
        resumed = run_campaign(
            spec, ResultStore(tmp_path / "c.jsonl"), resume=True
        )
        assert resumed.executed == 0
        assert resumed.skipped == 4
        report_resumed = [
            r.render() for r in campaign_report(ResultStore(tmp_path / "c.jsonl"))
        ]
        assert report_resumed == report_cold

    def test_parallel_store_byte_identical(self, tmp_path):
        spec = tiny_spec()
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        run_campaign(spec, ResultStore(serial), n_jobs=1)
        run_campaign(spec, ResultStore(parallel), n_jobs=2)
        lines_s = sorted(serial.read_text().splitlines())
        lines_p = sorted(parallel.read_text().splitlines())
        assert lines_s == lines_p

    def test_partial_store_resumes_only_missing(self, tmp_path):
        spec = tiny_spec()
        full = ResultStore(tmp_path / "full.jsonl")
        run_campaign(spec, full)
        partial_path = tmp_path / "partial.jsonl"
        with open(partial_path, "w", encoding="utf-8") as fh:
            for line in (tmp_path / "full.jsonl").read_text().splitlines()[:2]:
                fh.write(line + "\n")
        summary = run_campaign(
            spec, ResultStore(partial_path), resume=True
        )
        assert summary.executed == 2
        assert summary.skipped == 2
        assert sorted(partial_path.read_text().splitlines()) == sorted(
            (tmp_path / "full.jsonl").read_text().splitlines()
        )

    def test_status(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(tmp_path / "c.jsonl")
        assert campaign_status(spec, store) == [("tiny/pattern", 0, 4)]
        run_campaign(spec, store)
        assert campaign_status(spec, store) == [("tiny/pattern", 4, 4)]

    def test_bad_later_scenario_fails_before_any_execution(self, tmp_path):
        spec = CampaignSpec(
            name="failfast",
            scenarios=[
                tiny_spec().scenarios[0],
                ScenarioSpec(
                    name="failfast/broken",
                    system=SystemSpec("single_communication", {"u": 2}),
                ),
            ],
        )
        store = ResultStore(tmp_path / "ff.jsonl")
        with pytest.raises(CampaignError, match="missing parameter"):
            run_campaign(spec, store)
        # The healthy first scenario must not have burned any compute.
        assert len(store) == 0

    @pytest.mark.parametrize(
        "options,match",
        [
            # A deleted option: a bad name, caught when the grid expands.
            ({"estimator": "steady"}, r"does not accept option\(s\) estimator"),
            ({"law": "cauchy"}, "unknown distribution family"),
            ({"law": "gamma", "law_params": {"shapez": 0.5}}, "shapez"),
            ({"n_datasets": 0}, "n_datasets must be >= 1"),
            ({"n_datasets": 2.5}, "n_datasets must be an integer"),
            ({"seed": -1}, "seed must be >= 0"),
        ],
        ids=[
            "estimator", "law", "law_params", "n_datasets", "n_datasets-float",
            "seed",
        ],
    )
    def test_bad_simulation_option_fails_before_any_execution(
        self, tmp_path, options, match
    ):
        spec = CampaignSpec(
            name="badsim",
            scenarios=[
                tiny_spec().scenarios[0],
                ScenarioSpec(
                    name="badsim/simulation",
                    system=SystemSpec(
                        "single_communication", {"u": 2, "v": 2}
                    ),
                    solver="simulation",
                    options={"n_datasets": 20, **options},
                ),
            ],
        )
        store = ResultStore(tmp_path / "bad.jsonl")
        with pytest.raises(CampaignError, match=match) as info:
            run_campaign(spec, store)
        assert "scenario 'badsim/simulation'" in str(info.value)
        assert len(store) == 0

    @pytest.mark.parametrize(
        "axis,values",
        [
            ("solver.n_datasets", [100, 0]),
            ("solver.n_datasets", [100, 2.5]),
            ("solver.seed", [0, -1]),
            ("solver.n_replications", [2, 0]),
        ],
        ids=["n_datasets", "n_datasets-float", "seed", "n_replications"],
    )
    def test_bad_simulation_axis_value_exits_2_before_storing(
        self, tmp_path, axis, values
    ):
        # Every unit's solver is built before the first is scored, so the
        # valid first value is not stored ahead of the bad second one.
        from repro.cli import main

        spec = CampaignSpec(
            name="badaxis",
            scenarios=[
                ScenarioSpec(
                    name="badaxis/simulation",
                    system=SystemSpec(
                        "single_communication", {"u": 2, "v": 2}
                    ),
                    solver="simulation",
                    options={"n_datasets": 20},
                    axes={axis: values},
                ),
            ],
        )
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(spec.to_json())
        store = tmp_path / "bad.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "run", "--spec", str(spec_file),
                  "--store", str(store)])
        assert exc.value.code == 2
        assert not store.exists()

    def test_record_seed_provenance(self, tmp_path):
        spec = CampaignSpec(
            name="prov",
            seed=3,
            scenarios=[
                tiny_spec().scenarios[0],  # deterministic: no seed field
                ScenarioSpec(
                    name="prov/pinned",
                    system=SystemSpec(
                        "single_communication", {"u": 2, "v": 2}
                    ),
                    solver="simulation",
                    options={"n_datasets": 20, "seed": 42},
                ),
            ],
        )
        store = ResultStore(tmp_path / "prov.jsonl")
        run_campaign(spec, store)
        for record in store.records():
            if record["solver"] == "simulation":
                # The recorded seed is the one that drove the stream.
                assert record["seed"] == 42
            else:
                assert "seed" not in record

    def test_values_match_direct_evaluate(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(tmp_path / "c.jsonl")
        run_campaign(spec, store)
        for record in store.records():
            mp = single_communication(
                record["params"]["system.u"],
                record["params"]["system.v"],
                comm_time=1.0,
            )
            assert record["value"] == evaluate(mp, solver="deterministic")

    def test_law_params_from_json_spec(self, tmp_path):
        # JSON can only express law_params as lists of pairs; the whole
        # chain (spec -> solver -> cache keys -> store) must accept it.
        spec = CampaignSpec.from_json(
            CampaignSpec(
                name="laws",
                scenarios=[
                    ScenarioSpec(
                        name="laws/gamma",
                        system=SystemSpec(
                            "single_communication", {"u": 2, "v": 2}
                        ),
                        solver="simulation",
                        options={
                            "n_datasets": 20,
                            "law": "gamma",
                            "law_params": [["shape", 2.0]],
                        },
                    ),
                ],
            ).to_json()
        )
        store = ResultStore(tmp_path / "laws.jsonl")
        summary = run_campaign(spec, store)
        assert summary.executed == 1
        solver = get_solver(
            "simulation", law="gamma", law_params=[["shape", 2.0]]
        )
        assert solver.law_params == (("shape", 2.0),)
        hash(solver)  # canonical form must stay hashable

    def test_report_shows_seed_for_stochastic_units(self, tmp_path):
        def sim_spec(seed: int) -> CampaignSpec:
            return CampaignSpec(
                name="sim",
                seed=seed,
                scenarios=[
                    ScenarioSpec(
                        name="sim/conv",
                        system=SystemSpec(
                            "uniform_chain", {"replication": [1, 2], "work": 1.0}
                        ),
                        solver="simulation",
                        options={"n_datasets": 30},
                    ),
                ],
            )

        store = ResultStore(tmp_path / "two_seeds.jsonl")
        run_campaign(sim_spec(1), store)
        run_campaign(sim_spec(2), store, resume=True)
        (report,) = campaign_report(store)
        assert "seed" in report.columns
        assert len(report.rows) == 2
        assert report.rows[0]["seed"] != report.rows[1]["seed"]

    def test_simulation_units_reproducible(self, tmp_path):
        spec = CampaignSpec(
            name="sim",
            seed=7,
            scenarios=[
                ScenarioSpec(
                    name="sim/conv",
                    system=SystemSpec(
                        "uniform_chain", {"replication": [1, 2], "work": 1.0}
                    ),
                    solver="simulation",
                    options={"n_datasets": 40},
                    axes={"solver.n_datasets": [40, 80]},
                ),
            ],
        )
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_campaign(spec, ResultStore(a), n_jobs=1)
        run_campaign(spec, ResultStore(b), n_jobs=2)
        assert a.read_text() == b.read_text()


# ----------------------------------------------------------------------
# Heterogeneous batch API (evaluate layer)
# ----------------------------------------------------------------------
class TestEvaluateTasks:
    def test_matches_single_evaluate(self):
        mp = single_communication(2, 3)
        tasks = [
            ("deterministic", mp, "overlap"),
            ("exponential", mp, "overlap"),
            (get_solver("simulation", n_datasets=30, seed=1), mp, "overlap"),
        ]
        values = evaluate_tasks(tasks)
        assert values[0] == evaluate(mp, solver="deterministic")
        assert values[1] == evaluate(mp, solver="exponential")
        assert values[2] == evaluate(
            mp, solver="simulation", n_datasets=30, seed=1
        )

    def test_dedup_through_cache(self):
        mp = single_communication(2, 2)
        cache = StructureCache()
        values = evaluate_tasks(
            [("deterministic", mp, "overlap")] * 3, cache=cache
        )
        assert len(set(values)) == 1
        assert cache.misses == 1
        assert cache.hits == 2

    def test_parallel_bit_identical(self):
        mappings = [single_communication(u, 2) for u in (2, 3, 4, 5)]
        tasks = [
            (get_solver("simulation", n_datasets=25, seed=3), mp, "overlap")
            for mp in mappings
        ]
        serial = evaluate_tasks(tasks, n_jobs=1)
        parallel = evaluate_tasks(tasks, n_jobs=2)
        assert serial == parallel


# ----------------------------------------------------------------------
# Presets
# ----------------------------------------------------------------------
class TestPresets:
    def test_all_presets_expand(self):
        for name in available_presets():
            spec = get_preset(name)
            units = expand(spec)
            assert units, name
            assert len({u.fingerprint for u in units}) == len(units)
            # Every preset round-trips through JSON unchanged.
            assert CampaignSpec.from_json(spec.to_json()) == spec

    def test_smoke_is_four_units(self):
        assert len(expand(get_preset("smoke"))) == 4

    def test_unknown_preset(self):
        with pytest.raises(CampaignError, match="unknown campaign preset"):
            get_preset("nope")

    def test_fig13_preset_matches_driver_theory(self, tmp_path):
        """The ported preset reproduces the hand-coded driver's numbers."""
        spec = get_preset("fig13")
        store = ResultStore(tmp_path / "f13.jsonl")
        run_campaign(spec, store)
        for record in store.records():
            mp = single_communication(
                record["params"]["system.u"],
                record["params"]["system.v"],
                comm_time=1.0,
            )
            assert record["value"] == pytest.approx(
                evaluate(mp, solver=record["solver"])
            )
