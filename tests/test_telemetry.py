"""Tests for :mod:`repro.telemetry` and its service integration.

Covers the metrics registry (instrument semantics, duplicate-name
refusal, histogram quantiles, merge associativity/commutativity,
Prometheus text rendering), the flight recorder (rotation, torn-tail
repair, slow-request marking, cross-file trace joins), the logging
plumbing, trace propagation end-to-end (worker replies carry span
telemetry, the ``metrics`` op reconciles exactly with the legacy
``stats`` counters, a trace id survives an orchestrator failover
re-dispatch into both recorder files), the campaign runner's opt-in
``record_request_ids`` (and that leaving it off preserves store
byte-identity), and the CLI ``metrics``/``trace``/``stats --watch``
surface.
"""

from __future__ import annotations

import json
import logging

import pytest

from repro.campaign import ResultStore, get_preset, run_campaign
from repro.cli import main
from repro.evaluate import TaskFailure
from repro.exceptions import CampaignError
from repro.service import (
    EvaluationEngine,
    ServiceClient,
    local_fleet,
    serve_in_thread,
)
from repro.telemetry import (
    DEFAULT_LATENCY_BUCKETS,
    FlightRecorder,
    Histogram,
    JsonLineFormatter,
    ManualClock,
    MetricsRegistry,
    configure_logging,
    find_trace,
    get_logger,
    histogram_quantile,
    merge_snapshots,
    new_request_id,
    read_events,
    render_prometheus,
)


def pattern_task(u: int = 2, v: int = 2) -> dict:
    return {
        "system": {
            "kind": "single_communication",
            "params": {"u": u, "v": v, "comm_time": 1.0},
        },
        "solver": "deterministic",
        "model": "overlap",
        "options": {},
    }


def distinct_tasks(n: int) -> list[dict]:
    pairs = [(1 + i % 3, 1 + i // 3) for i in range(n)]
    assert len(set(pairs)) == n
    return [pattern_task(u, v) for u, v in pairs]


# ----------------------------------------------------------------------
# Clocks
# ----------------------------------------------------------------------
class TestManualClock:
    def test_deterministic_advance(self):
        clk = ManualClock(start=10.0)
        assert clk() == 10.0
        clk.advance(2.5)
        assert clk() == clk.now() == 12.5

    def test_never_backwards(self):
        clk = ManualClock()
        with pytest.raises(ValueError, match="backwards"):
            clk.advance(-1.0)


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestInstruments:
    def test_counter_monotonic(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_test_total", "a counter")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError, match="up"):
            c.inc(-1)

    def test_callback_backed_reads_live_state(self):
        # The fn= form is what guarantees metrics == stats: both read
        # the very same underlying integer.
        state = {"n": 0}
        reg = MetricsRegistry()
        c = reg.counter("repro_live_total", fn=lambda: state["n"])
        state["n"] = 7
        assert c.value == 7
        with pytest.raises(TypeError, match="callback-backed"):
            c.inc()

    def test_gauge_moves_both_ways(self):
        g = MetricsRegistry().gauge("repro_depth")
        g.inc(3)
        g.dec()
        g.set(10)
        assert g.value == 10

    def test_duplicate_registration_raises(self):
        reg = MetricsRegistry()
        reg.counter("repro_once_total")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("repro_once_total")

    def test_unregister_allows_rebind(self):
        reg = MetricsRegistry()
        reg.counter("repro_rebind_total")
        reg.unregister("repro_rebind_total")
        reg.counter("repro_rebind_total")  # no raise
        assert reg.names() == ["repro_rebind_total"]

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            reg.counter("9starts_with_digit")
        with pytest.raises(ValueError, match="invalid metric name"):
            reg.counter("has space")


class TestHistogram:
    def test_observe_and_snapshot(self):
        h = Histogram("repro_lat_seconds", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["counts"] == [1, 2, 1, 1]  # last is the +Inf overflow
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(56.05)
        assert snap["p50"] is not None

    def test_quantile_interpolates_and_clamps(self):
        bounds = [1.0, 2.0, 4.0]
        # 10 observations in [1, 2): p50 lands mid-bucket.
        q = histogram_quantile(bounds, [0, 10, 0, 0], 0.5)
        assert 1.0 < q < 2.0
        # Overflow bucket clamps to the largest finite bound.
        assert histogram_quantile(bounds, [0, 0, 0, 5], 0.99) == 4.0
        assert histogram_quantile(bounds, [0, 0, 0, 0], 0.5) is None
        with pytest.raises(ValueError, match="quantile"):
            histogram_quantile(bounds, [1, 0, 0, 0], 1.5)

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("repro_bad_seconds", buckets=(1.0, 1.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("repro_bad_seconds", buckets=())


def _hist_snap(values) -> dict:
    h = Histogram("repro_m_seconds", "m", buckets=(0.01, 0.1, 1.0))
    for v in values:
        h.observe(v)
    return {"repro_m_seconds": h.snapshot()}


class TestMergeSnapshots:
    def test_histogram_merge_is_associative_and_commutative(self):
        a = _hist_snap([0.005, 0.05])
        b = _hist_snap([0.5, 5.0, 0.05])
        c = _hist_snap([0.009] * 4)
        left = merge_snapshots(merge_snapshots(a, b), c)
        right = merge_snapshots(a, merge_snapshots(b, c))
        flat = merge_snapshots(c, a, b)
        # Bucket counts (and hence every quantile) merge exactly in any
        # order; the float `sum` is associative only up to rounding.
        for merged in (left, right, flat):
            h = merged["repro_m_seconds"]
            assert h["count"] == 9
            assert h["counts"] == [5, 2, 1, 1]
            assert h["sum"] == pytest.approx(5.641)
            assert h["p50"] == left["repro_m_seconds"]["p50"]
            assert h["p99"] == left["repro_m_seconds"]["p99"]

    def test_counters_sum_and_singletons_pass_through(self):
        a = {"repro_x_total": {"type": "counter", "help": "", "value": 2}}
        b = {
            "repro_x_total": {"type": "counter", "help": "", "value": 3},
            "repro_only_b": {"type": "gauge", "help": "", "value": 1},
        }
        merged = merge_snapshots(a, b)
        assert merged["repro_x_total"]["value"] == 5
        assert merged["repro_only_b"]["value"] == 1

    def test_mismatches_raise(self):
        ctr = {"repro_x": {"type": "counter", "help": "", "value": 1}}
        gauge = {"repro_x": {"type": "gauge", "help": "", "value": 1}}
        with pytest.raises(ValueError, match="counter vs gauge"):
            merge_snapshots(ctr, gauge)
        other = {
            "repro_m_seconds": Histogram(
                "repro_m_seconds", buckets=(0.5, 1.0)
            ).snapshot()
        }
        with pytest.raises(ValueError, match="bounds differ"):
            merge_snapshots(_hist_snap([0.1]), other)

    def test_merge_does_not_mutate_inputs(self):
        a = _hist_snap([0.05])
        before = json.dumps(a, sort_keys=True)
        merge_snapshots(a, _hist_snap([0.5]))
        assert json.dumps(a, sort_keys=True) == before


class TestPrometheusRendering:
    def test_counter_and_histogram_lines(self):
        reg = MetricsRegistry()
        reg.counter("repro_req_total", "requests").inc(3)
        h = reg.histogram("repro_lat_seconds", "latency", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        text = render_prometheus(reg.collect())
        assert "# HELP repro_req_total requests\n" in text
        assert "# TYPE repro_req_total counter\n" in text
        assert "\nrepro_req_total 3\n" in text
        assert "# TYPE repro_lat_seconds histogram\n" in text
        # Bucket counts are cumulative, +Inf last, then _sum/_count.
        assert 'repro_lat_seconds_bucket{le="0.1"} 1\n' in text
        assert 'repro_lat_seconds_bucket{le="1"} 2\n' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 3\n' in text
        assert "repro_lat_seconds_count 3\n" in text
        assert text.endswith("\n")

    def test_help_line_only_when_help_registered(self):
        reg = MetricsRegistry()
        reg.counter("repro_bare_total", "").inc(1)
        text = render_prometheus(reg.collect())
        # TYPE is unconditional; HELP only appears with registered text.
        assert "# TYPE repro_bare_total counter\n" in text
        assert "# HELP" not in text


class TestHelpCompleteness:
    """Every built-in instrument must ship scrape-ready help text."""

    @staticmethod
    def assert_fully_helped(snapshot: dict, exposition: str) -> None:
        missing = [
            name for name, entry in snapshot.items() if not entry.get("help")
        ]
        assert not missing, f"instruments without help: {missing}"
        # Exposition-level pairing: one # HELP per # TYPE, no orphans.
        assert exposition.count("# TYPE ") == len(snapshot)
        assert exposition.count("# HELP ") == len(snapshot)

    def test_engine_instruments(self):
        engine = EvaluationEngine()
        try:
            snap = engine.metrics.collect()
            self.assert_fully_helped(snap, render_prometheus(snap))
        finally:
            engine.close()

    def test_server_scoped_instruments(self):
        engine = EvaluationEngine()
        server, thread = serve_in_thread(engine)
        host, port = server.endpoint
        try:
            with ServiceClient(host, port) as client:
                reply = client.metrics()
            self.assert_fully_helped(reply["metrics"], reply["exposition"])
        finally:
            server.shutdown()
            server.server_close()
            engine.close()
            thread.join(timeout=5)

    def test_fleet_merged_instruments(self):
        with local_fleet(2, ping_interval=None) as fleet:
            with fleet.client() as client:
                client.evaluate_batch([pattern_task()])
                reply = client.metrics()
            self.assert_fully_helped(reply["metrics"], reply["exposition"])


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_events_round_trip_sorted_keys(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        with FlightRecorder(path, clock=ManualClock(100.0)) as rec:
            rec.record("request", request_id="abc", op="batch", ok=True)
        events = read_events(path)
        assert len(events) == 1
        assert events[0]["kind"] == "request"
        assert events[0]["request_id"] == "abc"
        assert events[0]["ts"] == 100.0
        raw = path.read_text().strip()
        assert raw == json.dumps(
            json.loads(raw), sort_keys=True, separators=(",", ":")
        )

    def test_rotation_keeps_bounded_generations(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        rec = FlightRecorder(path, max_bytes=200, keep=2)
        for i in range(40):
            rec.record("request", request_id=f"{i:016x}", op="batch")
        rec.close()
        assert rec.rotations > 0
        assert path.exists()
        assert (tmp_path / "flight.jsonl.1").exists()
        # Never more than `keep` rotated generations.
        assert not (tmp_path / "flight.jsonl.3").exists()
        # Reads stitch the surviving generations oldest-first.
        events = read_events(path)
        ids = [e["request_id"] for e in events]
        assert ids == sorted(ids, key=lambda s: int(s, 16))

    def test_torn_tail_repaired_on_open(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        with FlightRecorder(path) as rec:
            rec.record("request", request_id="aa")
        # Simulate a crash mid-write: garbage with no trailing newline.
        with open(path, "ab") as fh:
            fh.write(b'{"kind": "request", "request')
        rec2 = FlightRecorder(path)
        rec2.record("request", request_id="bb")
        rec2.close()
        assert rec2.repaired_bytes > 0
        assert [e["request_id"] for e in read_events(path)] == ["aa", "bb"]

    def test_reader_skips_garbage_lines(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        path.write_bytes(
            b'{"kind": "request", "request_id": "aa", "ts": 1}\n'
            b"not json at all\n"
            b"[1, 2, 3]\n"
            b'{"kind": "request", "request_id": "bb", "ts": 2}\n'
        )
        assert [e["request_id"] for e in read_events(path)] == ["aa", "bb"]

    def test_slow_threshold_marks_and_warns(self, tmp_path):
        # A handler pinned on the recorder's own logger, so the check
        # holds whether or not configure_logging() (which stops
        # propagation at the 'repro' root) ran earlier in the session.
        records: list[logging.LogRecord] = []
        handler = logging.Handler()
        handler.emit = records.append
        logger = logging.getLogger("repro.telemetry.recorder")
        logger.addHandler(handler)
        try:
            rec = FlightRecorder(tmp_path / "f.jsonl", slow_threshold_s=0.5)
            fast = rec.record("request", request_id="f", duration_s=0.1)
            slow = rec.record("request", request_id="s", duration_s=0.9)
            rec.close()
        finally:
            logger.removeHandler(handler)
        assert "slow" not in fast
        assert slow["slow"] is True
        assert any("slow request" in r.getMessage() for r in records)

    def test_find_trace_joins_files_by_timestamp(self, tmp_path):
        clk = ManualClock(50.0)
        a = FlightRecorder(tmp_path / "orchestrator.jsonl", clock=clk)
        b = FlightRecorder(tmp_path / "w0.jsonl", clock=clk)
        b.record("request", request_id="rid1")  # ts 50: worker first
        clk.advance(1.0)
        a.record("request", request_id="rid1")  # ts 51
        a.record("request", request_id="other")
        a.close()
        b.close()
        hits = find_trace(
            "rid1", [tmp_path / "orchestrator.jsonl", tmp_path / "w0.jsonl"]
        )
        assert [(name, e["ts"]) for name, e in hits] == [
            ("w0", 50.0), ("orchestrator", 51.0),
        ]


# ----------------------------------------------------------------------
# Logging plumbing
# ----------------------------------------------------------------------
class TestLogging:
    def test_get_logger_pins_namespace(self):
        assert get_logger("service.server").name == "repro.service.server"
        assert get_logger("repro.service.server").name == "repro.service.server"

    def test_configure_is_idempotent_and_leveled(self):
        root = configure_logging(verbose=0)
        assert root.level == logging.WARNING
        root = configure_logging(verbose=1)
        assert root.level == logging.INFO
        root = configure_logging(verbose=2)
        assert root.level == logging.DEBUG
        # Re-invocation replaces the tagged handler, never stacks it.
        tagged = [
            h for h in root.handlers
            if getattr(h, "_repro_telemetry_handler", False)
        ]
        assert len(tagged) == 1

    def test_json_formatter_emits_one_object_per_line(self):
        record = logging.LogRecord(
            "repro.test", logging.INFO, __file__, 1, "hello %s", ("world",),
            None,
        )
        record.fields = {"request_id": "abc"}
        payload = json.loads(JsonLineFormatter().format(record))
        assert payload["message"] == "hello world"
        assert payload["level"] == "info"
        assert payload["logger"] == "repro.test"
        assert payload["request_id"] == "abc"


# ----------------------------------------------------------------------
# Trace ids and TaskFailure provenance
# ----------------------------------------------------------------------
class TestRequestIds:
    def test_new_request_id_shape(self):
        rid = new_request_id()
        assert len(rid) == 16
        int(rid, 16)  # hex
        assert new_request_id() != rid

    def test_task_failure_carries_request_id_only_when_set(self):
        bare = TaskFailure.of(ValueError("boom"))
        assert bare.to_dict() == {"error": "ValueError", "message": "boom"}
        stamped = bare.stamp("abc123")
        assert stamped.to_dict() == {
            "error": "ValueError", "message": "boom", "request_id": "abc123",
        }
        # Stamping never overwrites and never copies needlessly.
        assert stamped.stamp("zzz") is stamped
        assert bare.stamp(None) is bare


# ----------------------------------------------------------------------
# Worker integration: spans, metrics op, recorder events
# ----------------------------------------------------------------------
class TestWorkerTelemetry:
    def test_metrics_reconcile_exactly_with_stats(self, tmp_path):
        engine = EvaluationEngine()
        rec = FlightRecorder(tmp_path / "w.jsonl")
        server, thread = serve_in_thread(engine, recorder=rec)
        host, port = server.endpoint
        try:
            with ServiceClient(host, port) as client:
                client.evaluate_batch(distinct_tasks(4))
                client.evaluate_batch(distinct_tasks(4))  # memo hits
                rid = client.last_request_id
                telemetry = client.last_telemetry
                stats = client.stats()
                metrics = client.metrics()
            # (a) the reply carried worker span telemetry
            assert telemetry["node"] == "worker"
            assert telemetry["request_id"] == rid
            spans = telemetry["spans"]
            assert set(spans) >= {"queue_wait_s", "execute_s", "total_s"}
            assert spans["total_s"] >= spans["execute_s"] >= 0.0
            # (b) metrics reconcile exactly with the legacy stats op
            snap = metrics["metrics"]
            requests = stats["counters"]["requests"]
            assert snap["repro_engine_units_total"]["value"] == requests["units"]
            assert (
                snap["repro_engine_executed_total"]["value"]
                == requests["executed"]
            )
            assert (
                snap["repro_engine_memo_hits_total"]["value"]
                == requests["memo_hits"]
            )
            assert (
                snap["repro_structure_cache_hits_total"]["value"]
                == stats["counters"]["structure_cache"]["hits"]
            )
            # (c) wire stats never leak the span block (byte-identity
            # of stores depends on the legacy stats shape).
            assert "span" not in requests
            # (d) text exposition renders the same snapshot
            assert "# TYPE repro_engine_batch_seconds histogram" in (
                metrics["exposition"]
            )
        finally:
            server.shutdown()
            server.server_close()
            engine.close()
            rec.close()
            thread.join(timeout=5)
        events = [
            e for e in read_events(tmp_path / "w.jsonl")
            if e.get("request_id") == rid
        ]
        assert len(events) == 1
        assert events[0]["kind"] == "request"
        assert events[0]["node"] == "worker"
        assert events[0]["ok"] is True
        assert events[0]["spans"]["total_s"] >= 0.0

    def test_client_reuses_request_id_across_retries(self):
        # The id is minted once per logical request; a caller-supplied
        # one is honored untouched.
        engine = EvaluationEngine()
        server, thread = serve_in_thread(engine)
        host, port = server.endpoint
        try:
            with ServiceClient(host, port) as client:
                reply = client.request(
                    {"op": "ping", "request_id": "feedface00000000"}
                )
                assert reply["ok"]
                assert client.last_request_id == "feedface00000000"
                client.ping()
                assert client.last_request_id != "feedface00000000"
        finally:
            server.shutdown()
            server.server_close()
            engine.close()
            thread.join(timeout=5)


# ----------------------------------------------------------------------
# Fleet: trace survival through failover, fleet-merged metrics
# ----------------------------------------------------------------------
class TestFleetTelemetry:
    def test_trace_id_survives_failover_redispatch(self, tmp_path):
        rec_dir = tmp_path / "flight"
        with local_fleet(2, ping_interval=None, recorder_dir=rec_dir) as fleet:
            with fleet.client() as client:
                tasks = distinct_tasks(6)
                values, failures, _stats = client.evaluate_batch(tasks)
                assert not failures
                # Both workers owned shards of that batch.
                hops = client.last_telemetry["hops"]
                assert {h["worker"] for h in hops} == {"w0", "w1"}
                fleet.kill_worker("w1")
                values2, failures2, _ = client.evaluate_batch(tasks)
                rid = client.last_request_id
                telemetry = client.last_telemetry
                assert not failures2
                assert values2 == values
            assert telemetry["node"] == "orchestrator"
            assert set(telemetry["spans"]) == {
                "route_s", "execute_s", "merge_s", "total_s",
            }
            hops = telemetry["hops"]
            lost = [h for h in hops if h["status"] == "lost"]
            assert lost and lost[0]["worker"] == "w1"
            # The re-dispatched shard landed on the survivor, same id.
            assert any(
                h["worker"] == "w0" and h["status"] == "ok" for h in hops
            )
        # After close: the trace joins across orchestrator + survivor.
        events = find_trace(
            rid, [rec_dir / "orchestrator.jsonl", rec_dir / "w0.jsonl"]
        )
        sources = {name for name, _ in events}
        assert sources == {"orchestrator", "w0"}
        kinds = {e["kind"] for _, e in events}
        assert kinds == {"request", "hop"}
        hop_statuses = {
            e["status"] for _, e in events if e["kind"] == "hop"
        }
        assert "lost" in hop_statuses

    def test_orchestrator_metrics_merge_fleet_histograms(self):
        with local_fleet(2, ping_interval=None) as fleet:
            with fleet.client() as client:
                client.evaluate_batch(distinct_tasks(6))
                reply = client.metrics()
            assert reply["role"] == "orchestrator"
            assert reply["workers_reporting"] == 2
            snap = reply["metrics"]
            # Two workers' engine counters folded into fleet totals.
            assert snap["repro_engine_units_total"]["value"] == 6
            batch_hist = snap["repro_engine_batch_seconds"]
            assert batch_hist["count"] == 2  # one sub-batch per worker
            assert (
                snap["repro_orchestrator_requests_total"]["value"] >= 1
            )
            assert "repro_fleet_live_workers" in snap
            assert "# TYPE repro_engine_batch_seconds histogram" in (
                reply["exposition"]
            )


# ----------------------------------------------------------------------
# Campaign provenance
# ----------------------------------------------------------------------
class TestCampaignRequestIds:
    def _run(self, tmp_path, name, client=None, **kwargs):
        store = ResultStore(tmp_path / name)
        run_campaign(get_preset("smoke"), store, client=client, **kwargs)
        return store

    def test_default_stays_byte_identical(self, tmp_path):
        local = self._run(tmp_path, "local.jsonl")
        engine = EvaluationEngine()
        server, thread = serve_in_thread(engine)
        host, port = server.endpoint
        try:
            with ServiceClient(host, port) as client:
                via = self._run(tmp_path, "via.jsonl", client=client)
                stamped = self._run(
                    tmp_path, "stamped.jsonl", client=client,
                    record_request_ids=True,
                )
        finally:
            server.shutdown()
            server.server_close()
            engine.close()
            thread.join(timeout=5)
        assert via.path.read_bytes() == local.path.read_bytes()
        rows = [
            json.loads(line)
            for line in stamped.path.read_text().splitlines()
        ]
        assert rows and all(
            len(r["request_id"]) == 16 for r in rows
        )
        # Stripping the provenance restores the exact local rows.
        stripped = [
            {k: v for k, v in r.items() if k != "request_id"} for r in rows
        ]
        local_rows = [
            json.loads(line) for line in local.path.read_text().splitlines()
        ]
        assert stripped == local_rows

    def test_record_request_ids_requires_client(self, tmp_path):
        store = ResultStore(tmp_path / "x.jsonl")
        with pytest.raises(CampaignError, match="service client"):
            run_campaign(
                get_preset("smoke"), store, record_request_ids=True
            )


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
@pytest.fixture
def cli_worker(tmp_path):
    engine = EvaluationEngine()
    rec = FlightRecorder(tmp_path / "flight.jsonl")
    server, thread = serve_in_thread(engine, recorder=rec)
    host, port = server.endpoint
    yield host, port, tmp_path / "flight.jsonl"
    server.shutdown()
    server.server_close()
    engine.close()
    rec.close()
    thread.join(timeout=5)


class TestCliTelemetry:
    def test_metrics_text_and_json(self, cli_worker, capsys):
        host, port, _ = cli_worker
        assert main(["metrics", "--host", host, "--port", str(port)]) == 0
        text = capsys.readouterr().out
        assert "# TYPE repro_engine_units_total counter" in text
        assert main(
            ["metrics", "--host", host, "--port", str(port), "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["role"] == "worker"
        assert "repro_engine_units_total" in payload["metrics"]

    def test_metrics_unreachable_exits_1(self, capsys):
        assert main(
            ["metrics", "--host", "127.0.0.1", "--port", "1",
             "--timeout", "0.2", "--retries", "1"]
        ) == 1
        assert "metrics failed" in capsys.readouterr().err

    def test_stats_watch_samples_n_times(self, cli_worker, capsys):
        host, port, _ = cli_worker
        assert main(
            ["stats", "--host", host, "--port", str(port),
             "--watch", "--interval", "0.05", "--count", "2"]
        ) == 0
        out = capsys.readouterr().out
        # Two JSON samples separated by a blank line ("requests" appears
        # in both the admission and structure-cache blocks of each).
        assert len(out.split("\n\n")) == 2

    def test_stats_count_without_watch_exits_2(self):
        # --count only bounds a --watch loop; alone it would be ignored.
        with pytest.raises(SystemExit) as exc:
            main(["stats", "--port", "1", "--count", "3"])
        assert exc.value.code == 2

    def test_trace_renders_span_path(self, cli_worker, capsys):
        host, port, recorder_path = cli_worker
        with ServiceClient(host, port) as client:
            client.evaluate_batch([pattern_task()])
            rid = client.last_request_id
        assert main(["trace", rid, "--recorder", str(recorder_path)]) == 0
        out = capsys.readouterr().out
        assert rid in out
        assert "worker" in out and "total_s=" in out
        # A miss exits 1; --json mode dumps raw events.
        assert main(
            ["trace", "0" * 16, "--recorder", str(recorder_path)]
        ) == 1
        capsys.readouterr()
        assert main(
            ["trace", rid, "--recorder", str(recorder_path), "--json"]
        ) == 0
        events = json.loads(capsys.readouterr().out)
        assert events[0]["request_id"] == rid

    def test_trace_requires_some_recorder(self, capsys):
        with pytest.raises(SystemExit):
            main(["trace", "0" * 16])
