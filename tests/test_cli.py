"""Smoke tests for the command-line driver (`python -m repro.cli`).

Every subcommand is exercised through ``main(argv)``, asserting exit
codes and — for the campaign family — the files it leaves behind.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import get_preset
from repro.cli import _parse_fleet_faults, main
from repro.exceptions import ServiceError


class TestList:
    def test_lists_experiments_and_presets(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out
        assert "campaign presets" in out
        assert "smoke" in out


class TestSolve:
    def test_deterministic(self, capsys):
        assert main(["solve", "example_a", "--solver", "deterministic"]) == 0
        assert "throughput" in capsys.readouterr().out

    def test_bounds(self, capsys):
        assert main(["solve", "example_a", "--solver", "bounds"]) == 0
        out = capsys.readouterr().out
        assert "lower (exp)" in out and "upper (cst)" in out

    def test_unknown_system_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "atlantis"])
        assert exc.value.code == 2


class TestSearch:
    def test_small_search(self, capsys):
        assert main(
            ["search", "--stages", "2", "--processors", "3",
             "--restarts", "1", "--seed", "0"]
        ) == 0
        assert "best" in capsys.readouterr().out


class TestBenchGuard:
    def test_refuses_existing_output_without_force(self, tmp_path):
        target = tmp_path / "BENCH.json"
        target.write_text("{}\n")
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--quick", "--output", str(target)])
        assert exc.value.code == 2

    def test_output_dash_streams_pure_json_and_writes_no_file(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(
            ["bench", "--quick", "--repeats", "1", "--output", "-"]
        ) == 0
        report = json.loads(capsys.readouterr().out)  # pure JSON
        assert list(tmp_path.iterdir()) == []  # nothing touched disk
        assert report["meta"]["quick"] is True
        heal = report["engines"]["service.selfheal"]
        assert heal["values_identical_to_clean"] is True
        assert heal["no_lost_or_duplicated_units"] is True
        assert heal["respawns"] == heal["kills"] >= 1

    def test_output_dash_bypasses_overwrite_guard(
        self, tmp_path, monkeypatch, capsys
    ):
        # '-' is a stream, not a path: an existing file named '-' must
        # neither trip the --force guard nor be written.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "-").write_text("sentinel")
        assert main(
            ["bench", "--quick", "--repeats", "1", "--output", "-"]
        ) == 0
        json.loads(capsys.readouterr().out)  # pure JSON
        assert [p.name for p in tmp_path.iterdir()] == ["-"]
        assert (tmp_path / "-").read_text() == "sentinel"


class TestParseFleetFaults:
    def test_plain_spec_arms_every_worker(self):
        assert _parse_fleet_faults("drop:1", 3) == {
            0: "drop:1", 1: "drop:1", 2: "drop:1",
        }

    def test_per_index_clauses_arm_only_the_named_workers(self):
        assert _parse_fleet_faults("0=crash:1; 2=hang:1:5;", 3) == {
            0: "crash:1", 2: "hang:1:5",
        }

    @pytest.mark.parametrize(
        "spec,match",
        [
            ("3=crash:1", "worker index 3 out of range for 3 worker"),
            ("w1=crash:1", "'w1' is not a worker index"),
            ("0=crash:1;0=drop:2", "'0=crash:1' and '0=drop:2' both arm worker 0"),
            ("1=drop:x", "'x' is not an integer"),
        ],
    )
    def test_bad_clauses_are_rejected(self, spec, match):
        with pytest.raises(ServiceError, match=match):
            _parse_fleet_faults(spec, 3)


class TestCampaign:
    def test_run_status_report_resume(self, tmp_path, capsys):
        store = tmp_path / "campaign.jsonl"

        # status before any run: everything remaining, exit code 1.
        assert main(
            ["campaign", "status", "--preset", "smoke", "--store", str(store)]
        ) == 1
        capsys.readouterr()

        assert main(
            ["campaign", "run", "--preset", "smoke", "--store", str(store)]
        ) == 0
        out = capsys.readouterr().out
        assert "executed   : 4" in out
        assert store.exists()
        assert len(store.read_text().splitlines()) == 4

        # complete: status exits 0.
        assert main(
            ["campaign", "status", "--preset", "smoke", "--store", str(store)]
        ) == 0
        assert "remaining  : 0" in capsys.readouterr().out

        # re-run without --resume is refused with exit code 2.
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "run", "--preset", "smoke", "--store", str(store)])
        assert exc.value.code == 2
        capsys.readouterr()

        # --resume executes nothing.
        assert main(
            ["campaign", "run", "--preset", "smoke", "--store", str(store),
             "--resume"]
        ) == 0
        assert "executed   : 0" in capsys.readouterr().out

        # report renders a table and writes the JSON dump.
        report_json = tmp_path / "report.json"
        assert main(
            ["campaign", "report", "--store", str(store),
             "--json", str(report_json)]
        ) == 0
        assert "smoke/pattern" in capsys.readouterr().out
        payload = json.loads(report_json.read_text())
        assert payload[0]["name"] == "smoke/pattern"
        assert len(payload[0]["rows"]) == 4

    def test_report_json_stdout_is_pure_json(self, tmp_path, capsys):
        store = tmp_path / "c.jsonl"
        assert main(
            ["campaign", "run", "--preset", "smoke", "--store", str(store)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["campaign", "report", "--store", str(store), "--json", "-"]
        ) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)  # nothing but JSON on stdout
        assert payload[0]["name"] == "smoke/pattern"

    def test_run_from_spec_file(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(get_preset("smoke").to_json())
        store = tmp_path / "from_file.jsonl"
        assert main(
            ["campaign", "run", "--spec", str(spec_file),
             "--store", str(store), "--n-jobs", "2"]
        ) == 0
        assert "executed   : 4" in capsys.readouterr().out
        assert len(store.read_text().splitlines()) == 4

    def test_requires_exactly_one_of_preset_or_spec(self, tmp_path):
        store = str(tmp_path / "s.jsonl")
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "run", "--store", store])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(
                ["campaign", "run", "--preset", "smoke", "--spec", "x.json",
                 "--store", store]
            )
        assert exc.value.code == 2

    def test_bad_spec_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit) as exc:
            main(
                ["campaign", "run", "--spec", str(bad),
                 "--store", str(tmp_path / "s.jsonl")]
            )
        assert exc.value.code == 2

    def test_report_on_empty_store(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out_json = tmp_path / "empty_report.json"
        assert main(
            ["campaign", "report", "--store", str(empty),
             "--json", str(out_json)]
        ) == 0
        assert "no campaign results" in capsys.readouterr().out
        # The JSON artifact exists even for an empty store.
        assert json.loads(out_json.read_text()) == []

    def test_report_on_missing_store_exits_2(self, tmp_path):
        # A nonexistent path can only be a typo for `report`.
        with pytest.raises(SystemExit) as exc:
            main(
                ["campaign", "report",
                 "--store", str(tmp_path / "nothing.jsonl")]
            )
        assert exc.value.code == 2

    def test_store_path_is_directory_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "report", "--store", str(tmp_path)])
        assert exc.value.code == 2

    def test_invalid_n_jobs_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                ["campaign", "run", "--preset", "smoke",
                 "--store", str(tmp_path / "s.jsonl"), "--n-jobs", "0"]
            )
        assert exc.value.code == 2

    def test_unknown_named_system_in_spec_exits_2(self, tmp_path):
        from repro.campaign import get_preset

        data = get_preset("smoke").to_dict()
        data["scenarios"][0]["system"] = {
            "kind": "named", "params": {"name": "atlantis"},
        }
        bad = tmp_path / "bad_system.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(SystemExit) as exc:
            main(
                ["campaign", "run", "--spec", str(bad),
                 "--store", str(tmp_path / "s.jsonl")]
            )
        assert exc.value.code == 2

    def test_seed_override_changes_simulation_values(self, tmp_path):
        spec_file = tmp_path / "sim.json"
        from repro.campaign import CampaignSpec, ScenarioSpec, SystemSpec

        spec = CampaignSpec(
            name="sim",
            seed=1,
            scenarios=[
                ScenarioSpec(
                    name="sim/one",
                    system=SystemSpec(
                        "uniform_chain", {"replication": [1, 2], "work": 1.0}
                    ),
                    solver="simulation",
                    options={"n_datasets": 30},
                ),
            ],
        )
        spec_file.write_text(spec.to_json())
        s1, s2 = tmp_path / "s1.jsonl", tmp_path / "s2.jsonl"
        assert main(
            ["campaign", "run", "--spec", str(spec_file), "--store", str(s1)]
        ) == 0
        assert main(
            ["campaign", "run", "--spec", str(spec_file), "--store", str(s2),
             "--seed", "99"]
        ) == 0
        (r1,) = [json.loads(line) for line in s1.read_text().splitlines()]
        (r2,) = [json.loads(line) for line in s2.read_text().splitlines()]
        # Stochastic units are seed-keyed: a different base seed is a
        # different unit (so stores from different seeds never conflate).
        assert r1["fingerprint"] != r2["fingerprint"]
        assert r1["seed"] != r2["seed"]


class TestVersion:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestServiceCommands:
    @pytest.fixture
    def served_cli(self, tmp_path):
        """`repro.cli serve` running on a background thread.

        Serves with an ephemeral port, a disk cache and a ready-file —
        exactly the operator setup the CI smoke job scripts — and
        yields the bound port.
        """
        import json as json_mod
        import threading
        import time

        ready = tmp_path / "ready.json"
        args = [
            "serve", "--port", "0",
            "--cache", str(tmp_path / "svc_cache.jsonl"),
            "--ready-file", str(ready),
            "--max-entries", "64",
        ]
        thread = threading.Thread(target=main, args=(args,), daemon=True)
        thread.start()
        deadline = time.monotonic() + 10
        while not ready.exists() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert ready.exists(), "server never wrote its ready file"
        port = json_mod.loads(ready.read_text())["port"]
        yield port
        from repro.exceptions import ServiceError
        from repro.service import ServiceClient

        try:
            with ServiceClient(port=port, timeout=2.0) as client:
                client.shutdown()
        except ServiceError:
            pass  # the test already shut it down
        thread.join(timeout=5)

    def test_ping_exit_codes(self, served_cli, capsys):
        port = served_cli
        assert main(["ping", "--port", str(port)]) == 0
        out = capsys.readouterr().out
        assert "version" in out and "evaluator" in out
        # Contract: 1 (not a usage error) when nothing listens.
        assert main(["ping", "--port", "1", "--timeout", "0.5"]) == 1

    def test_ping_json_stdout_is_pure_json(self, served_cli, capsys):
        port = served_cli
        assert main(["ping", "--port", str(port), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)  # nothing but JSON
        assert payload["counters"]["structure_cache"]["evictions"] == 0
        assert payload["counters"]["requests"]["units"] == 0
        assert payload["version"]

    def test_submit_twice_second_pass_all_cache_hits(self, served_cli, capsys):
        port = served_cli
        assert main(["submit", "--port", str(port), "--preset", "smoke"]) == 0
        first = capsys.readouterr().out
        assert "executed   : 4" in first
        assert main(["submit", "--port", str(port), "--preset", "smoke"]) == 0
        second = capsys.readouterr().out
        assert "executed   : 0" in second
        assert "cache hits : 4" in second
        assert "failures   : 0" in second

    def test_submit_single_system(self, served_cli, capsys):
        port = served_cli
        assert main(
            ["submit", "--port", str(port), "--system", "example_a"]
        ) == 0
        assert "example_a" in capsys.readouterr().out

    def test_submit_needs_exactly_one_work_source(self, served_cli, tmp_path):
        port = served_cli
        with pytest.raises(SystemExit) as exc:
            main(["submit", "--port", str(port)])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(
                ["submit", "--port", str(port), "--preset", "smoke",
                 "--system", "example_a"]
            )
        assert exc.value.code == 2

    def test_submit_unreachable_exits_1(self, capsys):
        assert main(
            ["submit", "--port", "1", "--preset", "smoke",
             "--timeout", "0.5"]
        ) == 1
        assert "submit failed" in capsys.readouterr().err

    def test_campaign_run_via_service(self, served_cli, tmp_path, capsys):
        port = served_cli
        local = tmp_path / "local.jsonl"
        via = tmp_path / "via.jsonl"
        assert main(
            ["campaign", "run", "--preset", "smoke", "--store", str(local)]
        ) == 0
        assert main(
            ["campaign", "run", "--preset", "smoke", "--store", str(via),
             "--via-service", f"127.0.0.1:{port}"]
        ) == 0
        assert via.read_bytes() == local.read_bytes()

    def test_campaign_run_via_bad_endpoint_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                ["campaign", "run", "--preset", "smoke",
                 "--store", str(tmp_path / "s.jsonl"),
                 "--via-service", "not-an-endpoint"]
            )
        assert exc.value.code == 2

    def test_shutdown_exit_codes(self, served_cli, capsys):
        port = served_cli
        assert main(["shutdown", "--port", str(port)]) == 0
        assert "stopped" in capsys.readouterr().out
        assert main(
            ["shutdown", "--port", "1", "--timeout", "0.5"]
        ) == 1

    def test_submit_seed_with_system_rejected(self, served_cli):
        port = served_cli
        with pytest.raises(SystemExit) as exc:
            main(
                ["submit", "--port", str(port), "--system", "example_a",
                 "--seed", "42"]
            )
        assert exc.value.code == 2

    def test_submit_chunks_large_batches(self, served_cli, capsys, monkeypatch):
        # A spec bigger than one submit chunk still scores every unit,
        # with the printed stats aggregated across the chunked frames.
        import repro.cli as cli_mod

        port = served_cli
        monkeypatch.setattr(cli_mod, "_SUBMIT_CHUNK", 3)
        assert main(["submit", "--port", str(port), "--preset", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "units      : 4" in out
        assert "executed   : 4" in out
        assert "failures   : 0" in out
        assert out.count(" : ") >= 4  # every unit's value line printed

    def test_submit_solver_with_preset_rejected(self, served_cli):
        port = served_cli
        with pytest.raises(SystemExit) as exc:
            main(
                ["submit", "--port", str(port), "--preset", "smoke",
                 "--solver", "exponential"]
            )
        assert exc.value.code == 2
