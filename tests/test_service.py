"""Tests for the evaluation service (`repro.service`).

Covers the protocol framing, the tier-2 disk cache's crash safety
(torn tails, duplicate fingerprints, concurrent writers — mirroring
the campaign store suite), the coalescing queue, the engine (including
the two PR acceptance proofs: N concurrent identical submissions → 1
evaluator run; a restarted server answers a repeat submit with 0
evaluator runs), the socket server/client round trip, and the campaign
runner's ``--via-service`` byte-identity.
"""

from __future__ import annotations

import io
import json
import os
import random
import sys
import threading
import time

import pytest

from repro.campaign import (
    ResultStore,
    expand,
    get_preset,
    run_campaign,
    unit_task_payload,
)
from repro.evaluate import TaskFailure, evaluate, evaluate_tasks, get_solver
from repro.evaluate.fingerprint import mapping_fingerprint
from repro.exceptions import ServiceError
from repro.mapping.examples import named_system, single_communication
from repro.service import (
    CoalescingQueue,
    DiskScoreCache,
    EvaluationEngine,
    ServiceClient,
    normalize_task,
    parse_endpoint,
    score_digest,
    serve_in_thread,
)
from repro.service.protocol import error_reply, recv_frame, send_frame


def smoke_tasks() -> list[dict]:
    return [unit_task_payload(u) for u in expand(get_preset("smoke"))]


def pattern_task(u: int = 2, v: int = 2, solver: str = "deterministic") -> dict:
    return {
        "system": {
            "kind": "single_communication",
            "params": {"u": u, "v": v, "comm_time": 1.0},
        },
        "solver": solver,
        "model": "overlap",
        "options": {},
    }


@pytest.fixture
def live_server(tmp_path):
    """A served engine with a disk cache; yields (engine, host, port)."""
    engine = EvaluationEngine(disk=DiskScoreCache(tmp_path / "svc.jsonl"))
    server, thread = serve_in_thread(engine)
    host, port = server.endpoint
    yield engine, host, port
    server.shutdown()
    server.server_close()
    engine.close()
    thread.join(timeout=5)


# ----------------------------------------------------------------------
# Protocol framing
# ----------------------------------------------------------------------
class TestProtocol:
    def test_round_trip(self):
        buf = io.BytesIO()
        send_frame(buf, {"op": "ping", "x": [1, 2.5, "é"]})
        buf.seek(0)
        assert recv_frame(buf) == {"op": "ping", "x": [1, 2.5, "é"]}
        assert recv_frame(buf) is None  # clean EOF

    def test_rejects_non_object_and_garbage(self):
        assert recv_frame(io.BytesIO(b"")) is None
        with pytest.raises(ServiceError, match="JSON"):
            recv_frame(io.BytesIO(b"not json\n"))
        with pytest.raises(ServiceError, match="object"):
            recv_frame(io.BytesIO(b"[1, 2]\n"))
        with pytest.raises(ServiceError, match="mid-frame"):
            recv_frame(io.BytesIO(b'{"op": "pi'))  # peer died mid-write

    def test_error_reply_shape(self):
        reply = error_reply("boom")
        assert reply == {
            "ok": False, "error": "boom", "error_type": "ServiceError",
        }

    def test_parse_endpoint(self):
        assert parse_endpoint("127.0.0.1:7781") == ("127.0.0.1", 7781)
        assert parse_endpoint("7781") == ("127.0.0.1", 7781)
        assert parse_endpoint(":7781") == ("127.0.0.1", 7781)
        assert parse_endpoint("example.org:80") == ("example.org", 80)
        with pytest.raises(ServiceError, match="endpoint"):
            parse_endpoint("nope")
        with pytest.raises(ServiceError, match="range"):
            parse_endpoint("127.0.0.1:99999")
        # IPv6 literals are rejected loudly, never misparsed.
        with pytest.raises(ServiceError, match="IPv6"):
            parse_endpoint("::1")
        with pytest.raises(ServiceError, match="IPv6"):
            parse_endpoint("[::1]:7781")


# ----------------------------------------------------------------------
# Tier-2 disk cache (crash safety mirrors the campaign store suite)
# ----------------------------------------------------------------------
class TestDiskScoreCache:
    def test_put_get_and_counters(self, tmp_path):
        cache = DiskScoreCache(tmp_path / "scores.jsonl")
        assert cache.get("aa") is None
        assert cache.put("aa", 0.25, solver="deterministic")
        assert cache.get("aa") == 0.25
        assert cache.stats() == {
            "entries": 1, "hits": 1, "misses": 1, "dropped_lines": 0,
        }

    def test_values_survive_reload_bit_identical(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        value = 0.1 + 0.2  # not exactly representable in decimal
        DiskScoreCache(path).put("aa", value)
        assert DiskScoreCache(path).get("aa") == value

    def test_torn_trailing_line_dropped_and_repaired(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        cache = DiskScoreCache(path)
        cache.put("aa", 1.0)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"fingerprint": "bb", "val')  # killed mid-write
        reloaded = DiskScoreCache(path)
        assert len(reloaded) == 1
        assert reloaded.dropped_lines == 1
        assert reloaded.get("bb") is None
        # Still appendable: the torn tail is truncated away on write.
        assert reloaded.put("bb", 2.0)
        final = DiskScoreCache(path)
        assert len(final) == 2
        assert final.get("bb") == 2.0

    def test_duplicate_fingerprints_first_wins(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"fingerprint": "aa", "value": 1.0}\n')
            fh.write('{"fingerprint": "aa", "value": 2.0}\n')
        cache = DiskScoreCache(path)
        assert len(cache) == 1
        assert cache.dropped_lines == 1
        assert cache.get("aa") == 1.0

    def test_concurrent_writers_dedup_on_reload(self, tmp_path):
        # Two cache instances on one path (two servers racing on the
        # same file): both append the same digest, the duplicate line is
        # dropped on the next load and the first value wins.
        path = tmp_path / "scores.jsonl"
        a = DiskScoreCache(path)
        b = DiskScoreCache(path)  # loaded before a's write: empty view
        assert a.put("aa", 1.0)
        assert b.put("aa", 2.0)  # b cannot see a's record
        assert len(path.read_text().splitlines()) == 2
        merged = DiskScoreCache(path)
        assert len(merged) == 1
        assert merged.dropped_lines == 1
        assert merged.get("aa") == 1.0

    def test_put_same_digest_twice_is_noop(self, tmp_path):
        cache = DiskScoreCache(tmp_path / "scores.jsonl")
        assert cache.put("aa", 1.0)
        assert not cache.put("aa", 9.0)
        assert cache.get("aa") == 1.0
        assert len(cache) == 1


# ----------------------------------------------------------------------
# Score digests
# ----------------------------------------------------------------------
class TestScoreDigest:
    def test_digest_separates_score_relevant_differences(self):
        mp = single_communication(2, 3)
        det = get_solver("deterministic")
        base = score_digest(det, mp, "overlap")
        assert base == score_digest(det, mp, "overlap")
        assert base != score_digest(det, mp, "strict")
        assert base != score_digest(get_solver("exponential"), mp, "overlap")
        exp = score_digest(get_solver("exponential"), mp, "overlap")
        assert exp != score_digest(
            get_solver("exponential", max_states=10), mp, "overlap"
        )
        assert base != score_digest(det, single_communication(3, 2), "overlap")

    def test_digest_ignores_processor_identities(self):
        # Same canonicalization as the in-memory memo: relabelled
        # platforms are throughput-isomorphic, hence one cache line.
        from repro.application.chain import Application
        from repro.mapping.mapping import Mapping
        from repro.platform.topology import Platform

        app = Application.from_work([1.0, 2.0], [0.5])
        plat = Platform.homogeneous(4, 2.0, 1.0)
        det = get_solver("deterministic")
        a = Mapping(app, plat, [[0], [1, 2]])
        b = Mapping(app, plat, [[3], [2, 0]])
        assert score_digest(det, a, "overlap") == score_digest(det, b, "overlap")

    def test_fingerprint_memo_matches_a_fresh_computation(self):
        from repro.mapping.mapping import Mapping

        mp = single_communication(2, 3)
        overlap = mapping_fingerprint(mp, "overlap")
        strict = mapping_fingerprint(mp, "strict")
        assert mapping_fingerprint(mp, "overlap") is overlap  # memoized
        # An equal mapping built afresh has no memo yet: it computes.
        fresh = Mapping(mp.application, mp.platform, mp.teams)
        assert fresh == mp
        assert mapping_fingerprint(fresh, "overlap") == overlap
        assert mapping_fingerprint(fresh, "strict") == strict
        assert overlap != strict


# ----------------------------------------------------------------------
# Coalescing queue
# ----------------------------------------------------------------------
class TestCoalescingQueue:
    def test_single_flight_counters(self):
        queue = CoalescingQueue()
        fut, leads = queue.claim("k")
        assert leads
        started = threading.Event()
        follower_values = []

        def follow():
            f, lead = queue.claim("k")
            assert not lead
            started.set()
            follower_values.append(f.result(timeout=5))

        t = threading.Thread(target=follow)
        t.start()
        started.wait(timeout=5)
        queue.resolve("k", fut, 42.0)
        t.join(timeout=5)
        assert follower_values == [42.0]
        assert queue.stats() == {"leads": 1, "coalesced": 1, "in_flight": 0}

    def test_resolved_key_starts_fresh_flight(self):
        queue = CoalescingQueue()
        fut, _ = queue.claim("k")
        queue.resolve("k", fut, 1.0)
        fut2, leads = queue.claim("k")
        assert leads  # not coalesced onto the finished flight
        assert fut2 is not fut

    def test_failure_values_propagate_to_followers(self):
        queue = CoalescingQueue()
        fut, _ = queue.claim("k")
        follower, leads = queue.claim("k")
        assert not leads
        failure = TaskFailure(error="StateSpaceLimitError", message="boom")
        queue.resolve("k", fut, failure)
        assert follower.result(timeout=5) is failure


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
class TestEngine:
    def test_values_match_direct_evaluate(self):
        engine = EvaluationEngine()
        results, stats = engine.run_batch(smoke_tasks())
        expected = [
            evaluate(
                single_communication(t["system"]["params"]["u"],
                                     t["system"]["params"]["v"],
                                     comm_time=1.0),
                solver="deterministic",
            )
            for t in smoke_tasks()
        ]
        assert results == expected
        assert stats["executed"] == 4
        assert stats["failures"] == 0

    def test_poisoned_task_is_isolated(self):
        engine = EvaluationEngine()
        poison = {
            "system": {"kind": "named", "params": {"name": "atlantis"}},
            "solver": "deterministic",
        }
        results, stats = engine.run_batch([poison, pattern_task()])
        assert isinstance(results[0], TaskFailure)
        assert results[0].error == "CampaignError"
        assert results[1] == evaluate(
            single_communication(2, 2, comm_time=1.0), solver="deterministic"
        )
        assert stats["failures"] == 1
        assert engine.failures == 1

    def test_bad_solver_options_recorded_not_raised(self):
        engine = EvaluationEngine()
        bad = dict(pattern_task(), options={"warp_speed": 9})
        (result,), stats = engine.run_batch([bad])
        assert isinstance(result, TaskFailure)
        assert "warp_speed" in result.message
        assert stats["executed"] == 0

    def test_memo_tier_answers_repeat_batches(self):
        engine = EvaluationEngine()
        first, _ = engine.run_batch(smoke_tasks())
        second, stats = engine.run_batch(smoke_tasks())
        assert second == first
        assert stats["executed"] == 0
        assert stats["memo_hits"] == 4

    def test_disk_tier_survives_engine_restart(self, tmp_path):
        path = tmp_path / "svc.jsonl"
        first_engine = EvaluationEngine(disk=DiskScoreCache(path))
        first, _ = first_engine.run_batch(smoke_tasks())
        # A brand-new engine (fresh memo — the "restarted server") must
        # answer the repeat batch entirely from the disk tier.
        restarted = EvaluationEngine(disk=DiskScoreCache(path))
        second, stats = restarted.run_batch(smoke_tasks())
        assert second == first
        assert stats["executed"] == 0
        assert stats["disk_hits"] == 4
        assert restarted.executed == 0

    def test_concurrent_identical_submissions_one_evaluator_run(self):
        # Acceptance proof: N identical concurrent submissions produce
        # exactly 1 evaluator run, whichever mix of coalescing and memo
        # absorbs the followers.
        engine = EvaluationEngine()
        task = pattern_task(3, 3, solver="exponential")
        n_clients = 8
        barrier = threading.Barrier(n_clients)
        results: list = []
        lock = threading.Lock()

        def submit():
            barrier.wait()
            (value,), _stats = engine.run_batch([task])
            with lock:
                results.append(value)

        threads = [threading.Thread(target=submit) for _ in range(n_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert len(results) == n_clients
        assert len(set(results)) == 1
        assert not isinstance(results[0], TaskFailure)
        assert engine.executed == 1  # the counter-asserted proof
        assert engine.queue.leads + engine.memo_hits >= 1

    def test_normalize_task_validation(self):
        with pytest.raises(ServiceError, match="JSON object"):
            normalize_task("nope")
        with pytest.raises(ServiceError, match="missing"):
            normalize_task({"solver": "deterministic"})
        with pytest.raises(ServiceError, match="unknown task key"):
            normalize_task(dict(pattern_task(), extra=1))
        with pytest.raises(ServiceError, match="registry name"):
            normalize_task(dict(pattern_task(), solver=3))
        solver, mapping, model = normalize_task(pattern_task(2, 3))
        assert solver.name == "deterministic"
        assert mapping.replication == (2, 3)
        assert model.value == "overlap"

    @pytest.mark.parametrize(
        "options",
        [
            {"estimator": "median"},  # a deleted option: a bad name
            {"law": "cauchy"},
            {"n_datasets_typo": 5},
            {"n_datasets": 0},
            {"seed": -1},
        ],
        ids=["bad-estimator", "bad-law", "bad-name", "bad-n_datasets", "bad-seed"],
    )
    def test_bad_option_value_reported_like_bad_option_name(self, options):
        task = dict(pattern_task(solver="simulation"), options=options)
        with pytest.raises(
            ServiceError, match="cannot configure solver 'simulation'"
        ):
            normalize_task(task)


# ----------------------------------------------------------------------
# Server / client round trip over a real socket
# ----------------------------------------------------------------------
class TestServerClient:
    def test_ping_reports_version_and_counters(self, live_server):
        _engine, host, port = live_server
        with ServiceClient(host, port) as client:
            reply = client.ping()
        from repro import __version__

        assert reply["version"] == __version__
        assert reply["counters"]["requests"]["units"] == 0
        assert reply["counters"]["disk_cache"]["entries"] == 0

    def test_evaluate_solve_batch(self, live_server):
        _engine, host, port = live_server
        with ServiceClient(host, port) as client:
            value = client.evaluate(pattern_task(2, 3))
            assert value == evaluate(
                single_communication(2, 3, comm_time=1.0),
                solver="deterministic",
            )
            assert client.solve("example_a") == evaluate(
                named_system("example_a"), solver="deterministic"
            )
            values, failures, stats = client.evaluate_batch(smoke_tasks())
            assert failures == []
            assert stats["units"] == 4

    def test_per_task_failures_cross_the_wire(self, live_server):
        _engine, host, port = live_server
        poison = {
            "system": {"kind": "named", "params": {"name": "atlantis"}},
            "solver": "deterministic",
        }
        with ServiceClient(host, port) as client:
            values, failures, stats = client.evaluate_batch(
                [poison, pattern_task()]
            )
            assert values[0] is None
            assert values[1] is not None
            assert failures[0]["index"] == 0
            assert failures[0]["error"] == "CampaignError"
            assert stats["failures"] == 1
            # A single-evaluate failure raises client-side.
            with pytest.raises(ServiceError, match="atlantis"):
                client.evaluate(poison)
            # The server survived all of it.
            assert client.ping()["counters"]["requests"]["failures"] >= 2

    def test_unknown_op_is_an_error_reply(self, live_server):
        _engine, host, port = live_server
        with ServiceClient(host, port) as client:
            for op in ("teleport", ["teleport"]):
                with pytest.raises(ServiceError, match="unknown op"):
                    client.request({"op": op})
            # The connection stays usable after an error reply.
            assert client.ping()["version"]

    def test_client_reports_unreachable_server(self):
        client = ServiceClient("127.0.0.1", 1)  # nothing listens there
        with pytest.raises(ServiceError, match="cannot reach"):
            client.ping()

    def test_warm_restart_answers_with_zero_evaluator_runs(self, tmp_path):
        # Acceptance proof, over real sockets: a server restarted on an
        # existing disk cache answers a repeat submit with 0 runs.
        path = tmp_path / "svc.jsonl"
        tasks = smoke_tasks()

        def one_server_pass():
            engine = EvaluationEngine(disk=DiskScoreCache(path))
            server, thread = serve_in_thread(engine)
            try:
                with ServiceClient(*server.endpoint) as client:
                    return client.evaluate_batch(tasks), engine.executed
            finally:
                server.shutdown()
                server.server_close()
                engine.close()
                thread.join(timeout=5)

        (first, _failures, stats1), executed1 = one_server_pass()
        assert executed1 == 4 and stats1["executed"] == 4
        (second, _failures2, stats2), executed2 = one_server_pass()
        assert executed2 == 0 and stats2["executed"] == 0
        assert stats2["disk_hits"] == 4
        assert second == first

    def test_shutdown_stops_the_server(self, tmp_path):
        engine = EvaluationEngine()
        server, thread = serve_in_thread(engine)
        host, port = server.endpoint
        with ServiceClient(host, port) as client:
            client.shutdown()
        thread.join(timeout=5)
        assert not thread.is_alive()
        server.server_close()
        engine.close()
        with pytest.raises(ServiceError):
            ServiceClient(host, port, timeout=0.5).ping()


# ----------------------------------------------------------------------
# Campaign execution through a running service
# ----------------------------------------------------------------------
class TestCampaignViaService:
    def test_store_byte_identical_to_local_run(self, tmp_path, live_server):
        _engine, host, port = live_server
        spec = get_preset("smoke")
        local = tmp_path / "local.jsonl"
        via = tmp_path / "via.jsonl"
        run_campaign(spec, ResultStore(local))
        with ServiceClient(host, port) as client:
            summary = run_campaign(
                spec, ResultStore(via), client=client
            )
        assert summary.executed == 4
        assert via.read_bytes() == local.read_bytes()

    def test_resume_via_service_executes_nothing(self, tmp_path, live_server):
        _engine, host, port = live_server
        spec = get_preset("smoke")
        store_path = tmp_path / "c.jsonl"
        with ServiceClient(host, port) as client:
            run_campaign(spec, ResultStore(store_path), client=client)
            summary = run_campaign(
                spec, ResultStore(store_path), client=client, resume=True
            )
        assert summary.executed == 0
        assert summary.skipped == 4

    def test_repeat_into_fresh_store_reports_memo_hits(self, tmp_path):
        # `executed` counts the units scored into this store; the service
        # line says the service ran none of them the second time.
        spec = get_preset("smoke")
        engine = EvaluationEngine()
        server, thread = serve_in_thread(engine)
        try:
            with ServiceClient(*server.endpoint) as client:
                run_campaign(
                    spec, ResultStore(tmp_path / "a.jsonl"), client=client
                )
                summary = run_campaign(
                    spec, ResultStore(tmp_path / "b.jsonl"), client=client
                )
        finally:
            server.shutdown()
            server.server_close()
            engine.close()
            thread.join(timeout=5)
        assert summary.executed == 4
        assert (
            "service    : executed 0, cache hits 4 (0 disk + 4 memo)"
            in summary.render().splitlines()
        )

    def test_service_failure_aborts_with_campaign_error(self, tmp_path):
        from repro.exceptions import CampaignError

        spec = get_preset("smoke")
        dead = ServiceClient("127.0.0.1", 1)
        with pytest.raises(CampaignError, match="service execution failed"):
            run_campaign(spec, ResultStore(tmp_path / "c.jsonl"), client=dead)


# ----------------------------------------------------------------------
# Degradation paths (review-hardened)
# ----------------------------------------------------------------------
class TestEngineDegradation:
    def test_disk_put_failure_degrades_cache_not_answers(self, tmp_path):
        # A failing tier-2 write (disk full, store error) must neither
        # change the reply nor strand coalesced followers.
        engine = EvaluationEngine(disk=DiskScoreCache(tmp_path / "svc.jsonl"))

        def exploding_put(digest, value, **meta):
            raise OSError("disk full")

        engine.disk.put = exploding_put
        results, stats = engine.run_batch(smoke_tasks())
        assert not any(isinstance(r, TaskFailure) for r in results)
        assert engine.disk_errors == 4
        assert engine.queue.in_flight() == 0  # nothing stranded
        assert engine.status()["requests"]["disk_errors"] == 4
        # The engine keeps serving afterwards (memo answers now).
        again, stats2 = engine.run_batch(smoke_tasks())
        assert again == results
        assert stats2["executed"] == 0

    def test_solve_time_failure_counts_as_evaluator_run(self):
        # `executed` counts runs that raised mid-flight too: operators
        # must see the work that was attempted, not only what succeeded.
        engine = EvaluationEngine()
        blow_up = {
            "system": {
                "kind": "single_communication",
                "params": {"u": 2, "v": 2, "comm_time": 1.0},
            },
            "solver": "exponential",
            "model": "strict",
            "options": {"max_states": 1},
        }
        (result,), stats = engine.run_batch([blow_up])
        assert isinstance(result, TaskFailure)
        assert result.error == "StateSpaceLimitError"
        assert stats["executed"] == 1
        assert engine.executed == 1
        # Failures are not cached: a retry attempts the run again.
        (_again,), stats2 = engine.run_batch([blow_up])
        assert stats2["executed"] == 1

    def test_max_entries_with_explicit_cache_rejected(self):
        from repro.evaluate import StructureCache

        with pytest.raises(ValueError, match="max_entries"):
            EvaluationEngine(cache=StructureCache(), max_entries=10)

    def test_in_batch_duplicates_accounted_in_stats(self):
        # units == executed + disk_hits + memo_hits + coalesced for a
        # healthy batch, even when duplicates ride a run this batch led.
        engine = EvaluationEngine()
        task = pattern_task(2, 3)
        results, stats = engine.run_batch([task, task, task])
        assert len(set(results)) == 1
        assert stats["executed"] == 1
        assert stats["coalesced"] == 2
        assert stats["units"] == (
            stats["executed"] + stats["disk_hits"]
            + stats["memo_hits"] + stats["coalesced"]
        )


def expected_results(tasks: list) -> list:
    """What ``run_batch`` must answer: ``evaluate_tasks`` on the
    normalized tasks, and the resolution failure in every other slot."""
    triples: dict[int, tuple] = {}
    results: list = [None] * len(tasks)
    for i, task in enumerate(tasks):
        try:
            triples[i] = normalize_task(task)
        except ServiceError as exc:
            results[i] = TaskFailure.of(exc)
    values = evaluate_tasks(list(triples.values()), on_error="record")
    for i, value in zip(triples, values):
        results[i] = value
    return results


class TestTaskMemo:
    """Each distinct wire task is resolved once per engine."""

    def test_repeat_batch_matches_evaluate_tasks(self):
        malformed = dict(pattern_task(), extra=1)
        bad_option = dict(pattern_task(), options={"warp_speed": 9})
        batch = [
            pattern_task(2, 3), malformed, pattern_task(2, 3),
            bad_option, pattern_task(3, 2, solver="exponential"),
            pattern_task(2, 3),
        ]
        expected = expected_results(batch)
        assert [type(r) for r in expected].count(TaskFailure) == 2
        engine = EvaluationEngine()
        first, first_stats = engine.run_batch(batch)
        second, second_stats = engine.run_batch(batch)
        assert first == expected
        assert second == expected
        assert first_stats["executed"] == 2
        assert second_stats["executed"] == 0
        # In-batch duplicates ride their first copy, as at a cold start.
        assert second_stats["memo_hits"] == 2
        assert second_stats["coalesced"] == 2
        assert second_stats["failures"] == 2
        assert len(engine.resolved) == 2

    def test_bounded_by_the_structure_cache(self):
        tasks = [pattern_task(u, v) for u in range(1, 6) for v in range(1, 5)]
        assert len(tasks) == 20
        expected = expected_results(tasks)
        engine = EvaluationEngine(max_entries=4)
        for _ in range(2):
            results, _stats = engine.run_batch(tasks)
            assert results == expected
            assert len(engine.resolved) <= 4

    def test_unresolved_task_fails_the_same_way_again(self):
        poison = {
            "system": {"kind": "named", "params": {"name": "atlantis"}},
            "solver": "deterministic",
        }
        engine = EvaluationEngine()
        (first,), _ = engine.run_batch([poison])
        (again,), stats = engine.run_batch([poison])
        assert isinstance(first, TaskFailure)
        assert again == first
        assert stats["failures"] == 1
        assert len(engine.resolved) == 0

    def test_concurrent_batches_keep_answers_and_bound(self):
        # More threads than cores on overlapping batches, switching
        # often: a lost update in the memo would break the bound or hand
        # a task another task's resolution.
        tasks = [pattern_task(u, v) for u in range(1, 4) for v in range(1, 4)]
        expected = dict(zip(map(json.dumps, tasks), expected_results(tasks)))
        engine = EvaluationEngine(max_entries=4)
        wrong: list = []
        sizes: list[int] = []
        deadline = time.monotonic() + 10.0

        def hammer(seed: int) -> None:
            rng = random.Random(seed)
            for _ in range(40):
                if time.monotonic() > deadline:
                    return
                batch = rng.sample(tasks, 4)
                results, _stats = engine.run_batch(batch)
                sizes.append(len(engine.resolved))
                wrong.extend(
                    (task, value)
                    for task, value in zip(batch, results)
                    if value != expected[json.dumps(task)]
                )

        n_threads = 4 * (os.cpu_count() or 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=hammer, args=(k,))
                for k in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong
        assert sizes and max(sizes) <= 4


class TestShutdownDrain:
    def test_shutdown_waits_for_in_flight_batches(self, tmp_path):
        # A shutdown from client B must not discard client A's
        # mid-evaluation batch: A still gets its values.
        engine = EvaluationEngine()
        server, thread = serve_in_thread(engine)
        host, port = server.endpoint
        slow_task = pattern_task(3, 4, solver="exponential")
        slow_task["model"] = "strict"  # ~0.3 s marking chain
        outcome: dict = {}

        def submit_slow():
            try:
                with ServiceClient(host, port) as client:
                    outcome["value"] = client.evaluate(slow_task)
            except ServiceError as exc:  # pragma: no cover - failure path
                outcome["error"] = exc

        a = threading.Thread(target=submit_slow)
        a.start()
        # Let A's request reach dispatch, then shut the server down.
        deadline = time.monotonic() + 5
        while not server.in_flight and time.monotonic() < deadline:
            time.sleep(0.005)
        with ServiceClient(host, port) as client:
            client.shutdown()
        # The serve loop has stopped, but the drain barrier holds until
        # A's reply went out (the CLI waits on exactly this).
        assert server.wait_for_inflight(timeout=30)
        a.join(timeout=30)
        server.server_close()
        engine.close()
        thread.join(timeout=5)
        assert "value" in outcome, outcome.get("error")
        assert not isinstance(outcome["value"], TaskFailure)
