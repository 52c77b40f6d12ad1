"""Tests for :mod:`repro.telemetry.profile` and its service wiring.

Covers the span timer arithmetic under a :class:`ManualClock` (exact
nested self/child attribution, exception-path closure), the disabled
fast path (shared no-op span, empty snapshots, zero per-call
allocation), thread-local activation (:func:`profiling` /
:func:`profile_span`), the snapshot merge algebra, the engine
integration (phase tree root reconciles *exactly* with the batch
latency histogram sum), the ``profile`` protocol op on workers and on
an orchestrator fronting a 2-worker fleet, and the ``cli profile`` /
``cli top`` surface.
"""

from __future__ import annotations

import contextlib
import json

import pytest

from repro.cli import main
from repro.exceptions import ServiceOverloaded
from repro.service import (
    EvaluationEngine,
    ServiceClient,
    local_fleet,
    serve_in_thread,
)
from repro.telemetry import ManualClock
from repro.telemetry.profile import (
    NULL_SPAN,
    Profiler,
    active_profiler,
    flatten_phases,
    merge_profile_snapshots,
    profile_span,
    profiling,
    render_profile,
)


def named_task(name: str = "example_a", solver: str = "deterministic") -> dict:
    return {
        "system": {"kind": "named", "params": {"name": name}},
        "solver": solver,
        "model": "overlap",
        "options": {},
    }


# ----------------------------------------------------------------------
# Span arithmetic under a manual clock
# ----------------------------------------------------------------------
class TestSpans:
    def test_nested_spans_exact_self_time(self):
        clk = ManualClock()
        prof = Profiler(clock=clk)
        with prof.span("a"):
            clk.advance(1.0)
            with prof.span("b"):
                clk.advance(2.0)
            clk.advance(3.0)
        snap = prof.snapshot()
        a = snap["phases"]["a"]
        assert a["calls"] == 1
        assert a["total_s"] == 6.0
        assert a["self_s"] == 4.0
        b = a["children"]["b"]
        assert b["calls"] == 1
        assert b["total_s"] == 2.0
        assert b["self_s"] == 2.0

    def test_sibling_spans_accumulate(self):
        clk = ManualClock()
        prof = Profiler(clock=clk)
        for dt in (1.0, 2.5):
            with prof.span("phase"):
                clk.advance(dt)
        node = prof.snapshot()["phases"]["phase"]
        assert node["calls"] == 2
        assert node["total_s"] == 3.5

    def test_exception_still_closes_span(self):
        clk = ManualClock()
        prof = Profiler(clock=clk)
        with pytest.raises(ValueError, match="boom"):
            with prof.span("risky"):
                clk.advance(1.5)
                raise ValueError("boom")
        node = prof.snapshot()["phases"]["risky"]
        assert node["calls"] == 1
        assert node["total_s"] == 1.5
        # The path unwound: a fresh span is a root again.
        with prof.span("after"):
            clk.advance(0.5)
        assert prof.snapshot()["phases"]["after"]["total_s"] == 0.5

    def test_record_creates_structural_parents_without_calls(self):
        prof = Profiler(clock=ManualClock())
        prof.record(("batch", "route"), 2.0)
        batch = prof.snapshot()["phases"]["batch"]
        # The parent was never recorded itself: zero calls, zero total,
        # and self time floored at 0 rather than going negative.
        assert batch["calls"] == 0
        assert batch["total_s"] == 0.0
        assert batch["self_s"] == 0.0
        assert batch["children"]["route"]["total_s"] == 2.0

    def test_reset_drops_phases_keeps_enabled(self):
        clk = ManualClock()
        prof = Profiler(clock=clk)
        with prof.span("x"):
            clk.advance(1.0)
        prof.reset()
        assert prof.snapshot() == {"enabled": True, "phases": {}}


# ----------------------------------------------------------------------
# Disabled fast path
# ----------------------------------------------------------------------
class TestDisabled:
    def test_disabled_span_is_the_shared_null_span(self):
        prof = Profiler(enabled=False, clock=ManualClock())
        # Identity, not just equivalence: the hot loop allocates nothing.
        assert prof.span("anything") is NULL_SPAN
        assert prof.span("other") is NULL_SPAN

    def test_disabled_record_and_snapshot_are_empty(self):
        clk = ManualClock()
        prof = Profiler(enabled=False, clock=clk)
        prof.record(("batch",), 1.0)
        with prof.span("x"):
            clk.advance(1.0)
        assert prof.snapshot() == {"enabled": False, "phases": {}}

    def test_profile_span_without_active_profiler_is_null(self):
        assert active_profiler() is None
        assert profile_span("reachability") is NULL_SPAN

    def test_profiling_with_disabled_profiler_is_noop(self):
        prof = Profiler(enabled=False)
        with profiling(prof):
            assert active_profiler() is None
            assert profile_span("x") is NULL_SPAN
        with profiling(None):
            assert profile_span("x") is NULL_SPAN


# ----------------------------------------------------------------------
# Thread-local activation
# ----------------------------------------------------------------------
class TestActivation:
    def test_profiling_installs_and_restores(self):
        prof = Profiler(clock=ManualClock())
        assert active_profiler() is None
        with profiling(prof):
            assert active_profiler() is prof
        assert active_profiler() is None

    def test_profiling_restores_on_exception(self):
        prof = Profiler(clock=ManualClock())
        with pytest.raises(RuntimeError):
            with profiling(prof):
                raise RuntimeError
        assert active_profiler() is None

    def test_base_path_nests_library_spans(self):
        clk = ManualClock()
        prof = Profiler(clock=clk)
        with profiling(prof, base=("batch", "execute")):
            with profile_span("reachability"):
                clk.advance(2.0)
        prof.record(("batch",), 5.0)
        prof.record(("batch", "execute"), 4.0)
        snap = prof.snapshot()
        batch = snap["phases"]["batch"]
        execute = batch["children"]["execute"]
        assert execute["children"]["reachability"]["total_s"] == 2.0
        assert execute["total_s"] == 4.0
        assert execute["self_s"] == 2.0
        assert batch["self_s"] == 1.0


# ----------------------------------------------------------------------
# Merge algebra
# ----------------------------------------------------------------------
class TestMerge:
    def snap(self, prof_spec: dict) -> dict:
        prof = Profiler(clock=ManualClock())
        for path, (calls, seconds) in prof_spec.items():
            prof.record(path, seconds, calls=calls)
        return prof.snapshot()

    def test_merge_sums_and_recomputes_self(self):
        a = self.snap({("batch",): (1, 4.0), ("batch", "execute"): (1, 3.0)})
        b = self.snap({("batch",): (2, 6.0), ("batch", "execute"): (2, 1.0)})
        merged = merge_profile_snapshots(a, b)
        batch = merged["phases"]["batch"]
        assert batch["calls"] == 3
        assert batch["total_s"] == 10.0
        assert batch["self_s"] == 6.0
        assert batch["children"]["execute"]["total_s"] == 4.0

    def test_merge_is_commutative_and_passes_unique_paths(self):
        a = self.snap({("batch",): (1, 4.0)})
        b = self.snap({("search",): (2, 1.5)})
        ab = merge_profile_snapshots(a, b)
        ba = merge_profile_snapshots(b, a)
        assert ab == ba
        assert set(ab["phases"]) == {"batch", "search"}

    def test_merge_of_nothing_is_empty(self):
        assert merge_profile_snapshots() == {"enabled": False, "phases": {}}

    def test_flatten_and_render(self):
        snap = self.snap({
            ("batch",): (1, 4.0),
            ("batch", "execute"): (1, 3.0),
        })
        rows = dict(flatten_phases(snap["phases"]))
        assert set(rows) == {"batch", "batch/execute"}
        table = render_profile(snap["phases"])
        assert "batch" in table and "execute" in table
        assert table.splitlines()[0].split() == [
            "phase", "calls", "total_s", "self_s",
        ]


# ----------------------------------------------------------------------
# Engine integration: exact reconciliation with the latency histograms
# ----------------------------------------------------------------------
class TestEngineProfile:
    def test_batch_root_reconciles_with_histogram_sum(self):
        engine = EvaluationEngine()
        try:
            engine.run_batch([named_task(), named_task("example_c")])
            engine.run_batch([named_task(solver="simulation")])
            snap = engine.profiler.snapshot()
            hist = engine.metrics.collect()["repro_engine_batch_seconds"]
            batch = snap["phases"]["batch"]
            # Same floats, same summation order: exact, not approximate.
            assert batch["calls"] == hist["count"] == 2
            assert batch["total_s"] == hist["sum"]
            children = batch["children"]
            q = engine.metrics.collect()["repro_engine_queue_wait_seconds"]
            e = engine.metrics.collect()["repro_engine_execute_seconds"]
            assert children["queue_wait"]["total_s"] == q["sum"]
            assert children["execute"]["total_s"] == e["sum"]
        finally:
            engine.close()

    def test_solver_phases_nest_under_execute(self):
        engine = EvaluationEngine()
        try:
            engine.run_batch([named_task(), named_task(solver="simulation")])
            execute = (
                engine.profiler.snapshot()["phases"]["batch"]["children"]
                ["execute"]
            )
            phases = execute["children"]
            assert "fingerprint" in phases
            assert "cache_lookup" in phases
            assert "critical_cycle" in phases  # the deterministic engine
            assert "simulate" in phases
        finally:
            engine.close()

    def test_disabled_profiler_records_nothing_on_hot_path(self):
        engine = EvaluationEngine(profiler=Profiler(enabled=False))
        try:
            values = engine.run_batch([named_task()])[0]
            assert values[0] == pytest.approx(values[0])
            assert engine.profiler.snapshot() == {
                "enabled": False, "phases": {},
            }
        finally:
            engine.close()

    def test_manual_clock_makes_reconciliation_trivially_exact(self):
        clk = ManualClock()
        engine = EvaluationEngine(clock=clk)
        try:
            engine.run_batch([named_task()])
            snap = engine.profiler.snapshot()
            hist = engine.metrics.collect()["repro_engine_batch_seconds"]
            assert snap["phases"]["batch"]["total_s"] == 0.0
            assert hist["sum"] == 0.0
        finally:
            engine.close()


# ----------------------------------------------------------------------
# The profile op: worker and fleet
# ----------------------------------------------------------------------
@contextlib.contextmanager
def served_worker():
    engine = EvaluationEngine()
    server, thread = serve_in_thread(engine)
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        engine.close()
        thread.join(timeout=5)


@contextlib.contextmanager
def served_orchestrator():
    with local_fleet(2) as fleet:
        yield fleet.orchestrator


class TestProfileOp:
    def test_worker_profile_op(self):
        engine = EvaluationEngine()
        server, thread = serve_in_thread(engine)
        host, port = server.endpoint
        try:
            with ServiceClient(host, port) as client:
                client.evaluate_batch([named_task()])
                reply = client.profile()
            assert reply["role"] == "worker"
            assert reply["profile"]["enabled"] is True
            assert "batch" in reply["profile"]["phases"]
        finally:
            server.shutdown()
            server.server_close()
            engine.close()
            thread.join(timeout=5)

    def test_fleet_profile_merges_and_reconciles(self):
        with local_fleet(2, ping_interval=None) as fleet:
            with fleet.client() as client:
                tasks = [
                    named_task(), named_task("example_c"),
                    named_task(solver="exponential"),
                    named_task("paper"),
                ]
                values, failures, _stats = client.evaluate_batch(tasks)
                assert not failures
                prof = client.profile()
                mets = client.metrics()
            assert prof["role"] == "orchestrator"
            assert prof["workers_reporting"] == 2
            merged = prof["profile"]["phases"]
            hist = mets["metrics"]["repro_engine_batch_seconds"]
            # The merged tree's root total equals the fleet-merged
            # histogram sum for the same op — exactly: both sides fold
            # the same per-worker floats in the same catalog order.
            assert merged["batch"]["calls"] == hist["count"]
            assert merged["batch"]["total_s"] == hist["sum"]
            # The orchestrator's own tree reconciles with its request
            # histogram the same way.
            orch = prof["orchestrator"]["phases"]["request"]
            req_hist = mets["metrics"]["repro_orchestrator_request_seconds"]
            assert orch["total_s"] == req_hist["sum"]
            assert set(orch["children"]) == {"route", "merge"}

    @pytest.mark.parametrize(
        "served", [served_worker, served_orchestrator],
        ids=["worker", "orchestrator"],
    )
    def test_profile_is_a_control_op_while_draining(self, served):
        # Flip the admission gate directly instead of sending the
        # shutdown op: the op also stops the accept loop, and racing a
        # fresh connection against that leaves it stuck in the listen
        # backlog. begin_shutdown() puts the server in exactly the
        # draining state admission sees, with the accept loop alive.
        with served() as server:
            host, port = server.endpoint
            with ServiceClient(host, port, timeout=30.0) as client:
                client.evaluate_batch([named_task()])
            server.begin_shutdown()
            with ServiceClient(host, port, timeout=30.0) as client:
                # Work is shed while draining, but profile bypasses
                # admission like the other observe-plane ops.
                with pytest.raises(ServiceOverloaded) as shed:
                    client.evaluate_batch([named_task()])
                assert shed.value.retry_after > 0
                for op in ("ping", "stats", "metrics"):
                    assert client.request({"op": op})["ok"], op
                reply = client.request({"op": "profile"})
                assert reply["ok"] and "batch" in reply["profile"]["phases"]


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
@pytest.fixture
def profiled_worker():
    engine = EvaluationEngine()
    server, thread = serve_in_thread(engine)
    host, port = server.endpoint
    with ServiceClient(host, port) as client:
        client.evaluate_batch([named_task()])
    yield host, port
    server.shutdown()
    server.server_close()
    engine.close()
    thread.join(timeout=5)


class TestCliProfile:
    def test_profile_table_and_json(self, profiled_worker, capsys):
        host, port = profiled_worker
        assert main(["profile", "--host", host, "--port", str(port)]) == 0
        out = capsys.readouterr().out
        assert "batch" in out and "execute" in out
        assert main(
            ["profile", "--host", host, "--port", str(port), "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["role"] == "worker"
        assert "batch" in payload["profile"]["phases"]

    def test_profile_unreachable_exits_1(self, capsys):
        assert main(
            ["profile", "--host", "127.0.0.1", "--port", "1",
             "--timeout", "0.2", "--retries", "1"]
        ) == 1
        assert "profile failed" in capsys.readouterr().err

    def test_top_renders_dashboard(self, profiled_worker, capsys):
        host, port = profiled_worker
        assert main(
            ["top", "--host", host, "--port", str(port),
             "--count", "2", "--interval", "0.05", "--no-clear"]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("repro top — worker") == 2
        assert "hottest phases" in out
        assert "repro_engine_batch_seconds" in out
        assert "hit rate" in out

    def test_top_validates_arguments(self, capsys):
        for argv in (
            ["top", "--interval", "0"],
            ["top", "--count", "0"],
            ["top", "--top", "0"],
        ):
            with pytest.raises(SystemExit):
                main(argv)
