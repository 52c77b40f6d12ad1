"""Tests for the fleet tier (`repro.service` orchestrator + routing).

Covers the endpoint-list parsing, the worker catalog's liveness
bookkeeping, rendezvous-hash placement (deterministic, balanced, and
minimally disruptive: evicting a worker moves only the keys it owned),
the orchestrator end-to-end over real sockets (request-order batch merging,
per-task failure re-indexing, fleet stats aggregation math), failover
(a worker killed mid-campaign completes with zero lost or duplicated
units and a byte-identical store), and the CLI surface
(``serve --role orchestrator``, fleet-aware ``ping``/``stats``).
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.campaign import ResultStore, get_preset, run_campaign
from repro.cli import main
from repro.evaluate import StructureCache, evaluate
from repro.exceptions import (
    ServiceError,
    ServiceUnavailable,
)
from repro.mapping.examples import single_communication
from repro.service import (
    FleetSupervisor,
    RetryPolicy,
    ServiceClient,
    WorkerCatalog,
    local_fleet,
    parse_endpoints,
    task_routing_key,
)
from repro.service.catalog import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    WorkerInfo,
)
from repro.service.orchestrator import OrchestratorServer
from repro.service.routing import rank


def pattern_task(u: int = 2, v: int = 2, *, solver: str = "deterministic",
                 comm_time: float = 1.0) -> dict:
    return {
        "system": {
            "kind": "single_communication",
            "params": {"u": u, "v": v, "comm_time": comm_time},
        },
        "solver": solver,
        "model": "overlap",
        "options": {},
    }


def distinct_tasks(n: int) -> list[dict]:
    """``n`` structurally distinct cheap tasks."""
    pairs = [(1 + i % 3, 1 + i // 3) for i in range(n)]
    assert len(set(pairs)) == n
    return [pattern_task(u, v) for u, v in pairs]


# ----------------------------------------------------------------------
# parse_endpoints
# ----------------------------------------------------------------------
class TestParseEndpoints:
    def test_host_port_list(self):
        assert parse_endpoints("127.0.0.1:7781,10.0.0.2:80") == [
            ("127.0.0.1", 7781), ("10.0.0.2", 80),
        ]

    def test_bare_ports_get_default_host(self):
        assert parse_endpoints("7781, 7782") == [
            ("127.0.0.1", 7781), ("127.0.0.1", 7782),
        ]

    def test_single_entry(self):
        assert parse_endpoints("host:1234") == [("host", 1234)]

    def test_empty_string_rejected(self):
        with pytest.raises(ServiceError, match="at least one"):
            parse_endpoints("")

    def test_empty_entry_reports_position(self):
        with pytest.raises(ServiceError, match="entry 2"):
            parse_endpoints("7781,,7783")

    def test_malformed_entry_reports_position(self):
        with pytest.raises(ServiceError, match="entry 2.*HOST:PORT"):
            parse_endpoints("7781,nope")

    def test_out_of_range_port_reports_position(self):
        with pytest.raises(ServiceError, match="entry 1.*out of range"):
            parse_endpoints("99999,7781")

    def test_duplicates_rejected_with_both_positions(self):
        with pytest.raises(ServiceError, match="entries 1 and 3"):
            parse_endpoints("7781,7782,127.0.0.1:7781")


# ----------------------------------------------------------------------
# WorkerCatalog
# ----------------------------------------------------------------------
class TestWorkerCatalog:
    def test_auto_names_are_stable_and_sequential(self):
        catalog = WorkerCatalog()
        names = [catalog.register("h", 7000 + i).name for i in range(3)]
        assert names == ["w0", "w1", "w2"]
        assert [w.name for w in catalog.workers()] == names
        assert len(catalog) == 3

    def test_duplicate_name_and_endpoint_rejected(self):
        catalog = WorkerCatalog()
        catalog.register("h", 7000, name="a")
        # Same name at the *same* endpoint is a true duplicate...
        with pytest.raises(ServiceError, match="already registered"):
            catalog.register("h", 7000, name="a")
        # ... and an endpoint owned by another name stays exclusive.
        with pytest.raises(ServiceError, match="7000"):
            catalog.register("h", 7000)

    def test_reregister_known_name_moves_endpoint_preserving_counters(self):
        catalog = WorkerCatalog()
        catalog.register("h", 7000, name="a")
        catalog.note_routed("a")
        catalog.record_failure("a", failover=True)
        # A known name announcing a new endpoint is a *respawn*: the
        # catalog moves it in place and keeps its traffic history.
        info = catalog.register("h", 7001, name="a")
        assert info is catalog.get("a")
        assert (info.host, info.port) == ("h", 7001)
        assert info.routed == 1 and info.failovers == 1
        assert info.live and info.consecutive_failures == 0
        assert info.breaker_state == BREAKER_CLOSED
        assert len(catalog) == 1

    def test_eviction_at_threshold_and_revival(self):
        catalog = WorkerCatalog(max_consecutive_failures=3)
        catalog.register("h", 7000, name="a")
        assert catalog.record_failure("a") is False
        assert catalog.record_failure("a") is False
        assert catalog.record_failure("a") is True  # evicted now
        assert catalog.live_workers() == []
        assert catalog.get("a").evictions == 1
        catalog.record_success("a")  # a later successful ping revives
        assert [w.name for w in catalog.live_workers()] == ["a"]
        assert catalog.get("a").consecutive_failures == 0

    def test_success_resets_streak_before_eviction(self):
        catalog = WorkerCatalog(max_consecutive_failures=2)
        catalog.register("h", 7000, name="a")
        catalog.record_failure("a")
        catalog.record_success("a")
        assert catalog.record_failure("a") is False  # streak restarted
        assert catalog.get("a").live

    def test_traffic_accounting(self):
        catalog = WorkerCatalog()
        catalog.register("h", 7000, name="a")
        catalog.begin("a")
        catalog.note_routed("a")
        assert catalog.get("a").in_flight == 1
        assert catalog.get("a").routed == 1
        catalog.end("a")
        assert catalog.get("a").in_flight == 0
        catalog.record_failure("a", failover=True)
        assert catalog.get("a").failovers == 1

    def test_remove_and_unknown_names(self):
        catalog = WorkerCatalog()
        catalog.register("h", 7000, name="a")
        assert catalog.remove("a").name == "a"
        assert len(catalog) == 0
        with pytest.raises(ServiceError, match="unknown worker"):
            catalog.remove("a")
        with pytest.raises(ServiceError, match="unknown worker"):
            catalog.get("a")

    def test_stats_rows_include_evicted(self):
        catalog = WorkerCatalog(max_consecutive_failures=1)
        catalog.register("h", 7000, name="a")
        catalog.register("h", 7001, name="b")
        catalog.record_failure("a")
        rows = catalog.stats()
        assert [r["name"] for r in rows] == ["a", "b"]
        assert rows[0]["live"] is False and rows[1]["live"] is True

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ServiceError, match="max_consecutive_failures"):
            WorkerCatalog(max_consecutive_failures=0)

    def test_invalid_breaker_parameters_rejected(self):
        with pytest.raises(ServiceError, match="breaker_cooldown_s"):
            WorkerCatalog(breaker_cooldown_s=-1.0)
        with pytest.raises(ServiceError, match="breaker_backoff"):
            WorkerCatalog(breaker_backoff=0.5)


# ----------------------------------------------------------------------
# Circuit breaker state machine (driven by a manual clock)
# ----------------------------------------------------------------------
class _ManualClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class TestCircuitBreaker:
    def _catalog(self, **overrides) -> tuple[WorkerCatalog, _ManualClock]:
        clock = _ManualClock()
        kwargs: dict = dict(
            max_consecutive_failures=3,
            breaker_cooldown_s=10.0,
            breaker_backoff=2.0,
            breaker_max_cooldown_s=60.0,
            clock=clock,
        )
        kwargs.update(overrides)
        catalog = WorkerCatalog(**kwargs)
        catalog.register("h", 7000, name="a")
        return catalog, clock

    def _trip(self, catalog: WorkerCatalog) -> None:
        for _ in range(catalog.max_consecutive_failures):
            catalog.record_failure("a")

    def test_trip_at_threshold_opens_for_the_cooldown(self):
        catalog, clock = self._catalog()
        assert catalog.record_failure("a") is False
        assert catalog.record_failure("a") is False
        assert catalog.record_failure("a") is True  # breaker trips
        info = catalog.get("a")
        assert info.breaker_state == BREAKER_OPEN
        assert info.live is False
        assert info.evictions == 1 and info.open_streak == 1
        assert catalog.live_workers() == []
        clock.advance(9.9)  # still cooling down
        assert catalog.live_workers() == []

    def test_elapsed_cooldown_grants_exactly_one_trial(self):
        catalog, clock = self._catalog()
        self._trip(catalog)
        clock.advance(10.0)
        assert [w.name for w in catalog.live_workers()] == ["a"]
        info = catalog.get("a")
        assert info.breaker_state == BREAKER_HALF_OPEN
        assert info.half_open_transitions == 1
        catalog.begin("a")  # the trial goes out...
        assert info.trial_in_flight is True
        assert catalog.live_workers() == []  # ...and no second one may

    def test_trial_success_closes_onto_probation(self):
        catalog, clock = self._catalog()
        self._trip(catalog)
        clock.advance(10.0)
        catalog.live_workers()
        catalog.begin("a")
        catalog.end("a")
        catalog.record_success("a")
        info = catalog.get("a")
        assert info.breaker_state == BREAKER_CLOSED
        assert info.live is True
        assert info.probation == 3

    def test_probation_failure_retrips_immediately(self):
        # The anti-flap property: a recovered worker that fails once
        # re-trips at once instead of absorbing a whole fresh streak of
        # real requests per flap.
        catalog, clock = self._catalog()
        self._trip(catalog)
        clock.advance(10.0)
        catalog.live_workers()
        catalog.record_success("a")  # trial passed; probation armed
        assert catalog.record_failure("a") is True  # one strike re-trips
        info = catalog.get("a")
        assert info.breaker_state == BREAKER_OPEN
        assert info.open_streak == 2

    def test_probation_completion_restores_full_streak_budget(self):
        catalog, clock = self._catalog()
        self._trip(catalog)
        clock.advance(10.0)
        catalog.live_workers()
        catalog.record_success("a")  # close; probation = 3
        for _ in range(3):
            catalog.record_success("a")
        info = catalog.get("a")
        assert info.probation == 0
        assert info.open_streak == 0  # fully rehabilitated
        # Off probation, a single failure no longer trips.
        assert catalog.record_failure("a") is False
        assert info.breaker_state == BREAKER_CLOSED

    def test_trial_failure_escalates_the_cooldown(self):
        catalog, clock = self._catalog()
        self._trip(catalog)
        assert catalog.get("a").cooldown_until == clock.now + 10.0
        clock.advance(10.0)
        catalog.live_workers()
        catalog.begin("a")
        catalog.end("a")
        assert catalog.record_failure("a") is True  # trial failed
        info = catalog.get("a")
        assert info.breaker_state == BREAKER_OPEN
        assert info.open_streak == 2
        assert info.cooldown_until == clock.now + 20.0  # doubled

    def test_cooldown_escalation_is_capped(self):
        catalog, clock = self._catalog()
        expected = [10.0, 20.0, 40.0, 60.0, 60.0]  # capped at the max
        for cooldown in expected:
            self._trip(catalog)
            info = catalog.get("a")
            assert info.cooldown_until == pytest.approx(clock.now + cooldown)
            clock.advance(cooldown)
            catalog.live_workers()  # promote to half-open
            catalog.record_success("a")  # close (probation armed)
            # Next loop's first failure re-trips via probation; feed the
            # remaining threshold failures harmlessly against open.
        assert catalog.get("a").evictions == len(expected)

    def test_reannounce_moves_endpoint_and_arms_immediate_probe(self):
        catalog, clock = self._catalog()
        catalog.note_routed("a")
        info = catalog.reannounce("a", "h", 7999)
        assert (info.host, info.port) == ("h", 7999)
        assert info.routed == 1  # traffic history survives the respawn
        assert info.breaker_state == BREAKER_OPEN and info.live is False
        # The cooldown is already elapsed: the very next snapshot grants
        # the replacement process its probe.
        assert [w.name for w in catalog.live_workers()] == ["a"]
        assert catalog.get("a").breaker_state == BREAKER_HALF_OPEN

    def test_reannounce_rejects_foreign_endpoint_and_unknown_name(self):
        catalog, _clock = self._catalog()
        catalog.register("h", 7001, name="b")
        with pytest.raises(ServiceError, match="already registered"):
            catalog.reannounce("a", "h", 7001)
        with pytest.raises(ServiceError, match="unknown worker"):
            catalog.reannounce("ghost", "h", 7002)

    def test_remove_of_a_tripped_worker(self):
        catalog, _clock = self._catalog(max_consecutive_failures=1)
        catalog.record_failure("a")
        assert catalog.get("a").breaker_state == BREAKER_OPEN
        assert catalog.remove("a").name == "a"
        assert len(catalog) == 0
        with pytest.raises(ServiceError, match="unknown worker"):
            catalog.get("a")

    def test_revival_after_trip_clears_the_failure_streak(self):
        catalog, clock = self._catalog()
        self._trip(catalog)
        assert catalog.get("a").consecutive_failures == 3
        clock.advance(10.0)
        catalog.live_workers()
        catalog.record_success("a")
        info = catalog.get("a")
        assert info.consecutive_failures == 0
        assert info.live is True


# ----------------------------------------------------------------------
# FleetSupervisor
# ----------------------------------------------------------------------
class TestFleetSupervisor:
    def _supervised(self, **overrides):
        clock = _ManualClock()
        catalog = WorkerCatalog(breaker_cooldown_s=10.0, clock=clock)
        catalog.register("h", 7000, name="a")
        kwargs: dict = dict(
            check_interval=0.1,
            max_restarts=3,
            backoff_base=1.0,
            backoff_multiplier=2.0,
            backoff_max=8.0,
            clock=clock,
        )
        kwargs.update(overrides)
        supervisor = FleetSupervisor(catalog, **kwargs)
        return supervisor, catalog, clock

    def test_check_once_respawns_dead_worker_and_reannounces(self):
        supervisor, catalog, _clock = self._supervised()
        alive = {"a": False}

        def respawn() -> tuple[str, int]:
            alive["a"] = True
            return ("h", 7000)

        supervisor.watch("a", is_alive=lambda: alive["a"], respawn=respawn)
        assert supervisor.check_once() == ["a"]
        assert supervisor.respawns == 1
        # The respawned worker is armed for an immediate half-open
        # probe, not trusted blindly.
        assert catalog.get("a").breaker_state == BREAKER_OPEN
        assert [w.name for w in catalog.live_workers()] == ["a"]
        assert catalog.get("a").breaker_state == BREAKER_HALF_OPEN
        assert supervisor.check_once() == []  # alive again: nothing to do

    def test_backoff_spaces_consecutive_respawn_attempts(self):
        supervisor, _catalog, clock = self._supervised()
        attempts: list[float] = []

        def respawn() -> tuple[str, int]:
            attempts.append(clock.now)
            return ("h", 7000)  # "succeeds", but the worker dies again

        supervisor.watch("a", is_alive=lambda: False, respawn=respawn)
        assert supervisor.check_once() == ["a"]
        assert supervisor.check_once() == []  # inside the backoff window
        clock.advance(1.0)  # base backoff elapsed
        assert supervisor.check_once() == ["a"]
        clock.advance(1.0)  # doubled backoff not yet elapsed
        assert supervisor.check_once() == []
        clock.advance(1.0)
        assert supervisor.check_once() == ["a"]
        assert attempts == [100.0, 101.0, 103.0]

    def test_restart_budget_exhaustion_abandons_the_worker(self):
        supervisor, _catalog, clock = self._supervised(max_restarts=1)
        supervisor.watch(
            "a", is_alive=lambda: False, respawn=lambda: ("h", 7000)
        )
        assert supervisor.check_once() == ["a"]
        clock.advance(60.0)
        assert supervisor.check_once() == []  # budget spent: abandoned
        stats = supervisor.stats()
        assert stats["respawns"] == 1
        (row,) = stats["workers"]
        assert row["abandoned"] is True and row["restarts"] == 1
        clock.advance(60.0)
        assert supervisor.check_once() == []  # stays abandoned

    def test_failed_respawn_consumes_budget_and_is_counted(self):
        supervisor, _catalog, clock = self._supervised(max_restarts=2)

        def respawn() -> tuple[str, int]:
            raise RuntimeError("no ports left")

        supervisor.watch("a", is_alive=lambda: False, respawn=respawn)
        assert supervisor.check_once() == []
        clock.advance(1.0)
        assert supervisor.check_once() == []
        clock.advance(60.0)
        assert supervisor.check_once() == []  # budget spent
        stats = supervisor.stats()
        assert stats["respawns"] == 0
        (row,) = stats["workers"]
        assert row["failed_respawns"] == 2 and row["abandoned"] is True

    def test_invalid_parameters_rejected(self):
        catalog = WorkerCatalog()
        with pytest.raises(ServiceError, match="check_interval"):
            FleetSupervisor(catalog, check_interval=0.0)
        with pytest.raises(ServiceError, match="max_restarts"):
            FleetSupervisor(catalog, max_restarts=-1)

    def test_in_process_fleet_respawn_end_to_end(self):
        tasks = distinct_tasks(4)
        with local_fleet(2, breaker_cooldown_s=0.05, retry=RetryPolicy(
            max_attempts=3, base_delay=0.01, max_delay=0.05, seed=0,
        )) as fleet:
            supervisor = fleet.make_supervisor(
                check_interval=0.05, max_restarts=3,
            )
            with fleet.client() as client:
                before, _, _ = client.evaluate_batch(tasks)
                fleet.kill_worker("w1")
                assert supervisor.check_once() == ["w1"]
                after, fails, _ = client.evaluate_batch(tasks)
                stats = client.stats()
        assert fails == [] and after == before
        assert stats["supervisor"]["respawns"] == 1
        rows = {r["name"]: r for r in stats["workers"]}
        # The respawned worker passed its probe and serves again.
        assert rows["w1"]["breaker"]["state"] == BREAKER_CLOSED
        assert rows["w1"]["breaker"]["half_open_transitions"] >= 1


# ----------------------------------------------------------------------
# Poison-unit quarantine
# ----------------------------------------------------------------------
class TestPoisonQuarantine:
    @staticmethod
    def quarantine_one(send) -> None:
        # Both workers drop every reply, so the unit is lost on two
        # distinct workers within one sweep and quarantined.
        with local_fleet(
            2,
            faults={0: "drop:4", 1: "drop:4"},
            max_unit_attempts=2,
            retry=RetryPolicy(
                max_attempts=2, base_delay=0.01, max_delay=0.02, seed=0,
            ),
        ) as fleet:
            with fleet.client() as client:
                failures = send(client, pattern_task(2, 3))
                stats = client.stats()
        assert len(failures) == 1
        failure = failures[0]
        assert failure["reason"] == "quarantined"
        assert failure["index"] == 0
        assert "2 distinct worker" in failure["message"]
        assert stats["orchestrator"]["quarantined"] == 1

    def test_unit_failing_on_distinct_workers_is_quarantined(self):
        self.quarantine_one(lambda client, task: client.evaluate_batch([task])[1])

    def test_evaluate_unit_failing_on_distinct_workers_is_quarantined(self):
        # An evaluate is a one-task batch: the reply is ok and carries
        # the quarantine record as its failure.
        self.quarantine_one(
            lambda client, task: [
                client.request({"op": "evaluate", "task": task})["failure"]
            ]
        )

    def test_quarantine_counts_distinct_workers_not_raw_retries(self):
        # A single unit walks the same-sweep re-route chain across all
        # three workers (each fails once) and only then quarantines —
        # the message names every distinct worker it died on.
        task = pattern_task(2, 3)
        with local_fleet(
            3,
            faults={0: "drop:8", 1: "drop:8", 2: "drop:8"},
            max_unit_attempts=3,
            retry=RetryPolicy(
                max_attempts=2, base_delay=0.01, max_delay=0.02, seed=0,
            ),
        ) as fleet:
            with fleet.client() as client:
                _values, failures, _stats = client.evaluate_batch([task])
        assert len(failures) == 1
        failure = failures[0]
        assert failure["reason"] == "quarantined"
        assert "3 distinct worker" in failure["message"]
        for name in ("w0", "w1", "w2"):
            assert name in failure["message"]


# ----------------------------------------------------------------------
# Self-healing acceptance proof
# ----------------------------------------------------------------------
class TestSelfHealingAcceptance:
    def test_supervised_chaos_run_heals_and_matches_direct(self, tmp_path):
        """The self-healing acceptance proof: a 4-worker *supervised*
        fleet loses a worker mid-campaign (the supervisor respawns it
        through the breaker's half-open probe), and the store still
        comes out byte-identical to a direct in-process run, with zero
        lost or duplicated units."""
        spec = get_preset("smoke")
        direct_store = ResultStore(tmp_path / "direct.jsonl")
        run_campaign(spec, direct_store)

        fleet_path = tmp_path / "fleet.jsonl"
        with local_fleet(
            4,
            breaker_cooldown_s=0.05,
            retry=RetryPolicy(
                max_attempts=4, base_delay=0.01, max_delay=0.05, seed=0,
            ),
        ) as fleet:
            supervisor = fleet.make_supervisor(
                check_interval=0.05, max_restarts=5,
            )
            supervisor.start()
            killer = threading.Timer(0.05, fleet.kill_worker, args=("w1",))
            killer.start()
            try:
                with fleet.client(
                    retry=RetryPolicy(max_attempts=4, seed=0)
                ) as client:
                    summary = run_campaign(
                        spec, ResultStore(fleet_path), client=client
                    )
                    deadline = time.monotonic() + 10.0
                    while supervisor.respawns < 1:
                        assert time.monotonic() < deadline, "no respawn seen"
                        time.sleep(0.01)
                    assert len(fleet.catalog.live_workers()) == 4  # rejoined
                    # One clean probe batch: its routing snapshot admits
                    # the respawned w1 to its half-open trial.
                    _, probe_fails, _ = client.evaluate_batch(distinct_tasks(8))
                    assert probe_fails == []
                    stats = client.stats()
            finally:
                killer.cancel()
                killer.join()
        assert summary.executed == summary.total
        assert summary.skipped == 0
        assert fleet_path.read_bytes() == (
            tmp_path / "direct.jsonl"
        ).read_bytes()
        assert stats["supervisor"]["respawns"] >= 1
        rows = {r["name"]: r for r in stats["workers"]}
        assert rows["w1"]["breaker"]["half_open_transitions"] >= 1


# ----------------------------------------------------------------------
# Rendezvous placement
# ----------------------------------------------------------------------
def _workers(n: int) -> list[WorkerInfo]:
    return [WorkerInfo(name=f"w{i}", host="h", port=7000 + i) for i in range(n)]


class TestFingerprintAffinity:
    def test_deterministic_ranking(self):
        workers = _workers(4)
        for key in ("a", "b", "c"):
            r1 = [w.name for w in rank(key, workers)]
            r2 = [w.name for w in rank(key, list(reversed(workers)))]
            assert r1 == r2  # same key, same ranking, any presentation order

    def test_keys_spread_over_workers(self):
        workers = _workers(4)
        owners = {
            f"key{i}": rank(f"key{i}", workers)[0].name
            for i in range(200)
        }
        counts = {name: 0 for name in ("w0", "w1", "w2", "w3")}
        for owner in owners.values():
            counts[owner] += 1
        # All four workers own a meaningful shard (rendezvous balance).
        assert all(count >= 20 for count in counts.values()), counts

    def test_eviction_moves_only_the_evicted_workers_keys(self):
        workers = _workers(4)
        keys = [f"key{i}" for i in range(200)]
        before = {k: rank(k, workers)[0].name for k in keys}
        survivors = [w for w in workers if w.name != "w2"]
        after = {k: rank(k, survivors)[0].name for k in keys}
        moved = [k for k in keys if before[k] != after[k]]
        # Exactly the evicted worker's keys move — nothing else.
        assert set(moved) == {k for k in keys if before[k] == "w2"}
        # ... and each lands on its second choice from the full ranking.
        for key in moved:
            full = [w.name for w in rank(key, workers)]
            assert after[key] == full[1]

    def test_rejoin_restores_original_owners(self):
        workers = _workers(4)
        keys = [f"key{i}" for i in range(50)]
        before = {k: rank(k, workers)[0].name for k in keys}
        again = {k: rank(k, list(workers))[0].name for k in keys}
        assert before == again


@pytest.fixture
def orchestrator():
    """An orchestrator with no workers, for its routing-key memo."""
    orch = OrchestratorServer(WorkerCatalog(), port=0)
    try:
        yield orch
    finally:
        orch.server_close()


def memoized_keys(orch: OrchestratorServer, *tasks) -> list[str]:
    """The orchestrator's key for each task, asked twice (miss, then hit)."""
    return [orch.routing_key(t) for t in tasks + tasks]


class TestTaskRoutingKey:
    def test_same_structure_different_timing_same_key(self, orchestrator):
        # comm_time changes firing times, not topology: same structure
        # fingerprint, same shard — the shared reachability exploration
        # stays hot for both.
        a = task_routing_key(pattern_task(2, 3, comm_time=1.0))
        b = task_routing_key(pattern_task(2, 3, comm_time=2.0))
        assert a == b
        assert memoized_keys(
            orchestrator, pattern_task(2, 3, comm_time=1.0),
            pattern_task(2, 3, comm_time=2.0),
        ) == [a, b, a, b]

    def test_different_topology_different_key(self, orchestrator):
        assert task_routing_key(pattern_task(2, 3)) != task_routing_key(
            pattern_task(3, 2)
        )
        assert memoized_keys(
            orchestrator, pattern_task(2, 3), pattern_task(3, 2)
        ) == 2 * [task_routing_key(pattern_task(2, 3)),
                  task_routing_key(pattern_task(3, 2))]

    def test_model_is_part_of_the_key(self, orchestrator):
        strict = dict(pattern_task(2, 2), model="strict")
        assert task_routing_key(pattern_task(2, 2)) != task_routing_key(strict)
        assert memoized_keys(orchestrator, pattern_task(2, 2), strict) == 2 * [
            task_routing_key(pattern_task(2, 2)), task_routing_key(strict),
        ]

    def test_garbage_task_still_routes(self, orchestrator):
        key = task_routing_key({"system": {"kind": "nope"}})
        assert isinstance(key, str) and key
        assert key == task_routing_key({"system": {"kind": "nope"}})
        assert isinstance(task_routing_key(object()), str)
        odd = object()
        assert memoized_keys(orchestrator, {"system": {"kind": "nope"}}, odd) == 2 * [
            key, task_routing_key(odd),
        ]


# ----------------------------------------------------------------------
# Orchestrator end-to-end (real sockets, in-process fleet)
# ----------------------------------------------------------------------
class TestOrchestratorEndToEnd:
    def test_values_match_direct_evaluation(self):
        tasks = distinct_tasks(5)
        direct = [
            evaluate(
                single_communication(
                    t["system"]["params"]["u"], t["system"]["params"]["v"],
                    comm_time=1.0,
                ),
                solver="deterministic", model="overlap",
                cache=StructureCache(),
            )
            for t in tasks
        ]
        with local_fleet(3) as fleet:
            with fleet.client() as client:
                values, failures, stats = client.evaluate_batch(tasks)
                single = client.evaluate(tasks[0])
        assert failures == []
        assert values == direct  # merged back in request order, exactly
        assert single == direct[0]
        assert stats["units"] == 5 and stats["executed"] == 5

    def test_batch_failures_reindexed_to_request_order(self):
        tasks = distinct_tasks(4)
        tasks[1] = {"system": {"kind": "nope"}, "solver": "deterministic",
                    "model": "overlap", "options": {}}
        with local_fleet(3) as fleet:
            with fleet.client() as client:
                values, failures, _stats = client.evaluate_batch(tasks)
        assert [f["index"] for f in failures] == [1]
        assert values[1] is None
        assert all(values[i] is not None for i in (0, 2, 3))

    def test_stats_totals_equal_sum_of_worker_rows(self):
        with local_fleet(3) as fleet:
            with fleet.client() as client:
                client.evaluate_batch(distinct_tasks(6))
                client.evaluate(pattern_task(3, 3))
                stats = client.stats()
        assert stats["role"] == "orchestrator"
        rows = stats["workers"]
        reported = [r["reported"]["requests"] for r in rows]
        for field in ("units", "executed", "batches", "memo_hits"):
            assert stats["totals"][field] == sum(
                r.get(field, 0) for r in reported
            ), field
        assert stats["totals"]["units"] == 7
        agg = stats["structure_cache"]
        assert agg["hits"] + agg["misses"] == agg["requests"]
        assert stats["orchestrator"]["units"] == 7
        assert stats["orchestrator"]["batches"] == 1

    def test_affinity_dedupes_repeats(self):
        task = pattern_task(2, 3)
        with local_fleet(2) as fleet:
            with fleet.client() as client:
                first = client.evaluate(task)
                second = client.evaluate(task)
                stats = client.stats()
        assert first == second
        # Affinity lands both on one worker: the second is a memo hit.
        assert stats["totals"]["executed"] == 1

    def test_ping_reports_fleet_summary(self):
        with local_fleet(2) as fleet:
            with fleet.client() as client:
                reply = client.ping()
        assert reply["role"] == "orchestrator"
        assert reply["counters"] is None
        assert reply["workers"] == {"total": 2, "live": 2}
        assert reply["strategy"] == "fingerprint_affinity"

    def test_evaluate_is_a_one_task_batch(self):
        # One dispatch path: an evaluate travels as a one-task batch, so
        # it carries the batch spans and hop units, and the route, shard
        # and merge instruments and profile phases observe it.
        task = pattern_task(2, 3)
        direct = evaluate(
            single_communication(2, 3, comm_time=1.0),
            solver="deterministic", model="overlap", cache=StructureCache(),
        )
        with local_fleet(2, ping_interval=None) as fleet:
            with fleet.client() as client:
                value = client.evaluate(task)
                telemetry = client.last_telemetry
            orch = fleet.orchestrator
            metrics = orch.metrics.collect()
            phases = orch.profiler.snapshot()["phases"]
        assert value == direct
        assert set(telemetry["spans"]) == {
            "route_s", "execute_s", "merge_s", "total_s",
        }
        assert [hop["units"] for hop in telemetry["hops"]] == [1]
        for name in ("route", "shard", "merge"):
            assert metrics[f"repro_orchestrator_{name}_seconds"]["count"] == 1
        assert set(phases["request"]["children"]) == {"route", "merge"}

    def test_route_window_counts_key_derivation(self, monkeypatch):
        # A key derivation builds the task's mapping on a memo miss; the
        # route span, histogram and profile phase must include it.
        import repro.service.orchestrator as orchestrator_module

        clock = _ManualClock()
        derive = orchestrator_module.task_routing_key

        def slow_derivation(task):
            clock.advance(5.0)
            return derive(task)

        monkeypatch.setattr(
            orchestrator_module, "task_routing_key", slow_derivation
        )
        with local_fleet(1, ping_interval=None) as fleet:
            orch = fleet.orchestrator
            orch.clock = clock
            reply = orch.run_batch([pattern_task(2, 3)], request_id="r1")
            metrics = orch.metrics.collect()
            phases = orch.profiler.snapshot()["phases"]
        assert reply["telemetry"]["spans"]["route_s"] == 5.0
        assert metrics["repro_orchestrator_route_seconds"]["sum"] == 5.0
        assert phases["request"]["children"]["route"]["total_s"] == 5.0

    def test_solve_forwarded(self):
        with local_fleet(2) as fleet:
            with fleet.client() as client:
                value = client.solve("example_a")
        assert value > 0

    def test_empty_batch(self):
        with local_fleet(2) as fleet:
            with fleet.client() as client:
                values, failures, stats = client.evaluate_batch([])
        assert values == [] and failures == []
        assert stats["units"] == 0

    def test_unknown_op_is_an_error_reply(self):
        with local_fleet(2) as fleet:
            with fleet.client() as client:
                for op in ("teleport", ["teleport"]):
                    with pytest.raises(ServiceError, match="unknown op"):
                        client.request({"op": op})
                # The connection stays usable after an error reply.
                assert client.ping()["role"] == "orchestrator"


# ----------------------------------------------------------------------
# Failover
# ----------------------------------------------------------------------
class TestFailover:
    def test_batch_survives_worker_killed_between_requests(self):
        tasks = distinct_tasks(6)
        with local_fleet(3, retry=RetryPolicy(
            max_attempts=3, base_delay=0.01, max_delay=0.05, seed=0,
        )) as fleet:
            with fleet.client() as client:
                before, fail_before, _ = client.evaluate_batch(tasks)
                fleet.kill_worker("w1")
                after, fail_after, stats = client.evaluate_batch(tasks)
        assert fail_before == [] and fail_after == []
        assert after == before  # no lost, duplicated or reordered units
        assert len(after) == len(tasks)
        # The dead worker's shard was re-dispatched to survivors.
        assert stats["executed"] + stats["memo_hits"] + stats[
            "disk_hits"] == len(tasks)

    def test_single_op_fails_over_to_next_candidate(self):
        task = pattern_task(2, 3)
        with local_fleet(2) as fleet:
            with fleet.client() as client:
                first = client.evaluate(task)
                # Kill whichever worker affinity owns for this key.
                owner = max(
                    fleet.catalog.stats(), key=lambda r: r["routed"]
                )["name"]
                fleet.kill_worker(owner)
                second = client.evaluate(task)
                stats = client.stats()
        assert second == first
        rows = {r["name"]: r for r in stats["workers"]}
        assert rows[owner]["failovers"] >= 1

    def test_dropped_reply_mid_batch_is_retried_not_lost(self):
        # drop:1 severs the connection before the reply — the shard
        # dies mid-request exactly like a crashed worker, and the
        # re-dispatch must neither lose nor duplicate units.
        tasks = distinct_tasks(6)
        with local_fleet(3, faults={1: "drop:1"}, retry=RetryPolicy(
            max_attempts=3, base_delay=0.01, max_delay=0.05, seed=0,
        )) as fleet:
            with fleet.client() as client:
                values, failures, _stats = client.evaluate_batch(tasks)
                stats = client.stats()
        assert failures == []
        assert all(v is not None for v in values)
        # The drop consumed its budget against exactly one shard.
        assert stats["orchestrator"]["failovers"] >= 1
        assert stats["totals"]["units"] >= len(tasks)  # retried shard re-ran

    def test_worker_evicted_after_consecutive_failures_then_excluded(self):
        with local_fleet(2, retry=RetryPolicy(
            max_attempts=2, base_delay=0.01, max_delay=0.02, seed=0,
        )) as fleet:
            fleet.kill_worker("w0")
            with fleet.client() as client:
                for task in distinct_tasks(6):
                    client.evaluate(task)
                stats = client.stats()
        rows = {r["name"]: r for r in stats["workers"]}
        assert rows["w0"]["live"] is False
        assert rows["w0"]["evictions"] == 1
        assert rows["w1"]["live"] is True

    def test_whole_fleet_down_raises_unavailable(self):
        with local_fleet(2, retry=RetryPolicy(
            max_attempts=2, base_delay=0.01, max_delay=0.02, seed=0,
        )) as fleet:
            fleet.kill_worker("w0")
            fleet.kill_worker("w1")
            with fleet.client() as client:
                with pytest.raises(ServiceUnavailable):
                    client.request(
                        {"op": "evaluate", "task": pattern_task()}, retry=None
                    )

    @pytest.mark.parametrize("n_tasks, n_shards", [(1, 1), (8, 2)])
    def test_worker_error_reply_fails_the_batch_at_once(
        self, n_tasks, n_shards
    ):
        # A worker's error reply is not a lost worker: the batch fails
        # with it at once, as an evaluate does, and nothing stays in
        # flight on the orchestrator.
        tasks = distinct_tasks(n_tasks)

        def broken_run_batch(batch):
            raise RuntimeError("worker bug")

        with local_fleet(2) as fleet:
            with fleet.client(timeout=5.0, retry=None) as client:
                _, _, stats = client.evaluate_batch(tasks)
                assert stats["shards"] == n_shards
                for worker in fleet.workers:
                    worker.server.engine.run_batch = broken_run_batch
                with pytest.raises(ServiceError, match="worker bug"):
                    client.evaluate_batch(tasks)
            assert fleet.orchestrator.wait_for_inflight(timeout=5.0)
            assert fleet.orchestrator.in_flight == 0

    def test_check_workers_evicts_and_revives(self):
        with local_fleet(2) as fleet:
            orch = fleet.orchestrator
            assert orch.check_workers() == {"w0": True, "w1": True}
            fleet.kill_worker("w1")
            for _ in range(fleet.catalog.max_consecutive_failures):
                results = orch.check_workers()
            assert results == {"w0": True, "w1": False}
            assert [w.name for w in fleet.catalog.live_workers()] == ["w0"]


class TestKilledMidCampaign:
    def test_store_byte_identical_and_no_lost_units(self, tmp_path):
        """The PR acceptance proof: a worker dies *while* a campaign is
        streaming through the orchestrator; the campaign completes with
        zero lost or duplicated run units and the store is
        byte-identical to a direct in-process run."""
        spec = get_preset("smoke")
        direct_store = ResultStore(tmp_path / "direct.jsonl")
        run_campaign(spec, direct_store)

        fleet_path = tmp_path / "fleet.jsonl"
        with local_fleet(3, retry=RetryPolicy(
            max_attempts=4, base_delay=0.01, max_delay=0.05, seed=0,
        )) as fleet:
            host, port = fleet.endpoint
            killer = threading.Timer(0.05, fleet.kill_worker, args=("w1",))
            killer.start()
            try:
                client = ServiceClient(
                    host, port, retry=RetryPolicy(max_attempts=4, seed=0)
                )
                with client:
                    summary = run_campaign(
                        spec, ResultStore(fleet_path), client=client
                    )
            finally:
                killer.cancel()
                killer.join()
        assert summary.executed == summary.total
        assert summary.skipped == 0
        assert fleet_path.read_bytes() == (
            tmp_path / "direct.jsonl"
        ).read_bytes()


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
@pytest.fixture
def cli_fleet():
    """A 2-worker in-process fleet for CLI probes."""
    with local_fleet(2) as fleet:
        yield fleet


class TestFleetCli:
    def test_orchestrator_role_requires_workers(self):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--role", "orchestrator", "--port", "0"])
        assert exc.value.code == 2

    def test_workers_flag_requires_orchestrator_role(self):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--port", "0", "--workers", "127.0.0.1:7781"])
        assert exc.value.code == 2

    def test_malformed_worker_list_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([
                "serve", "--role", "orchestrator", "--port", "0",
                "--workers", "7781,nope",
            ])
        assert exc.value.code == 2

    def test_fleet_rejects_bad_n_workers(self):
        with pytest.raises(SystemExit) as exc:
            main(["fleet", "--n-workers", "0", "--port", "0"])
        assert exc.value.code == 2

    def test_ping_renders_fleet_summary(self, cli_fleet, capsys):
        host, port = cli_fleet.endpoint
        assert main(["ping", "--host", host, "--port", str(port)]) == 0
        out = capsys.readouterr().out
        assert "role       : orchestrator (fingerprint_affinity)" in out
        assert "workers    : 2/2 live" in out

    def test_ping_json_includes_fleet_fields(self, cli_fleet, capsys):
        host, port = cli_fleet.endpoint
        assert main([
            "ping", "--host", host, "--port", str(port), "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["role"] == "orchestrator"
        assert payload["workers"] == {"total": 2, "live": 2}
        assert payload["counters"] is None

    def test_stats_renders_worker_table(self, cli_fleet, capsys):
        with cli_fleet.client() as client:
            client.evaluate_batch(distinct_tasks(4))
        host, port = cli_fleet.endpoint
        assert main(["stats", "--host", host, "--port", str(port)]) == 0
        out = capsys.readouterr().out
        assert "orchestrator: strategy=fingerprint_affinity" in out
        assert "0 failovers, 0 quarantined" in out
        assert "fleet totals: 4 units, 4 executed" in out
        for column in ("worker", "endpoint", "breaker", "routed", "failov"):
            assert column in out
        assert "w0" in out and "w1" in out
        assert "closed" in out  # healthy workers render their breaker state

    def test_stats_json_mode_is_raw_aggregate(self, cli_fleet, capsys):
        host, port = cli_fleet.endpoint
        assert main([
            "stats", "--host", host, "--port", str(port), "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["role"] == "orchestrator"
        assert [w["name"] for w in payload["workers"]] == ["w0", "w1"]

    def test_stats_unreachable_exits_1(self, capsys):
        assert main([
            "stats", "--port", "1", "--timeout", "0.3", "--retries", "1",
        ]) == 1
        assert "stats failed" in capsys.readouterr().err

    def test_shutdown_stops_orchestrator(self, capsys):
        with local_fleet(2) as fleet:
            host, port = fleet.endpoint
            assert main([
                "shutdown", "--host", host, "--port", str(port),
            ]) == 0
            assert "stopped" in capsys.readouterr().out
