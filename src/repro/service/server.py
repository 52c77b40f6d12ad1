"""The worker role: one :class:`EvaluationEngine` behind the service host.

``ServiceServer`` answers the protocol's operations (the frame loop,
admission, shedding and drain are :mod:`repro.service.host`'s) from
the shared :class:`~repro.service.workers.EvaluationEngine`:

* ``ping`` — liveness probe; replies with the package version, uptime,
  the number of in-flight requests and the engine/cache/queue counters;
* ``stats`` — the operator's view: admission-queue depth and capacity,
  shed count, retry-after hint, pool restart counters, fault budgets;
* ``evaluate`` — score one wire-format task (``solve`` is the
  named-system convenience form of the same thing);
* ``batch`` — score a list of tasks (the campaign runner's chunk shape,
  and what an orchestrator sends for every ``evaluate`` too);
* ``metrics`` — the engine's metrics-registry snapshot, as JSON and as
  Prometheus text exposition (see :mod:`repro.telemetry.metrics`);
* ``profile`` — the engine profiler's per-phase cost-attribution tree
  (see :mod:`repro.telemetry.profile`);
* ``shutdown`` — reply, then stop the server loop cleanly once every
  dispatched request has replied.

Telemetry: a request frame carrying a top-level ``request_id`` gets a
``telemetry`` block on its work reply (node, per-hop span timings) and
one ``request`` event in the server's flight recorder, joinable on that
id across the fleet.
"""

from __future__ import annotations

import threading

from repro.evaluate.batch import TaskFailure
from repro.exceptions import ServiceError
from repro.service.faults import FaultInjector
from repro.service.host import (
    CONTROL_OPS,
    DEFAULT_RETRY_AFTER,
    WORK_OPS,
    ServiceHost,
    solve_task,
)
from repro.service.protocol import DEFAULT_HOST, DEFAULT_PORT
from repro.service.workers import EvaluationEngine
from repro.telemetry import FlightRecorder, get_logger, render_prometheus

log = get_logger("service.server")

__all__ = [
    "CONTROL_OPS",
    "DEFAULT_RETRY_AFTER",
    "WORK_OPS",
    "ServiceServer",
    "serve_in_thread",
]


def _jsonify_results(
    results: list, request_id: str | None = None
) -> tuple[list, list[dict]]:
    """Split engine results into a value list and failure records.

    Failed slots carry ``None`` in ``values``; each failure is reported
    once in ``failures`` with the index it belongs to, stamped with the
    request's trace id so it is joinable against the flight recorder.
    """
    values: list = []
    failures: list[dict] = []
    for index, result in enumerate(results):
        if isinstance(result, TaskFailure):
            values.append(None)
            failures.append(
                {"index": index, **result.stamp(request_id).to_dict()}
            )
        else:
            values.append(result)
    return values, failures


class ServiceServer(ServiceHost):
    """The worker role: the protocol's ops answered by one engine."""

    role = "worker"
    shed_label = "evaluation service"

    def __init__(
        self,
        engine: EvaluationEngine,
        *,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        capacity: int | None = None,
        retry_after: float = DEFAULT_RETRY_AFTER,
        faults: FaultInjector | None = None,
        recorder: FlightRecorder | None = None,
    ) -> None:
        self.engine = engine
        self.recorder = recorder
        self.faults = faults
        super().__init__(
            (host, port),
            {
                "ping": self._ping,
                "stats": self._stats,
                "metrics": self._metrics,
                "profile": self._profile,
                "evaluate": self._evaluate,
                "solve": self._evaluate,
                "batch": self._batch,
            },
            capacity=capacity,
            retry_after=retry_after,
            # Span clock, shared with the engine so hop timings line up.
            clock=engine.clock,
        )
        # Server-scoped instruments live on the engine's registry so one
        # `metrics` scrape sees the whole process; unregister-first lets
        # a server be rebuilt around an engine that outlives it.
        m = engine.metrics
        for name in (
            "repro_server_shed_total",
            "repro_server_in_flight",
            "repro_server_uptime_seconds",
            "repro_server_request_seconds",
        ):
            m.unregister(name)
        m.counter(
            "repro_server_shed_total",
            "work requests refused by admission",
            fn=lambda: self.shed,
        )
        m.gauge(
            "repro_server_in_flight",
            "dispatched requests awaiting their reply",
            fn=lambda: self.in_flight,
        )
        m.gauge(
            "repro_server_uptime_seconds",
            "seconds since the server started",
            fn=lambda: self.uptime_s,
        )
        self._hist_request = m.histogram(
            "repro_server_request_seconds", "work-request latency at the server"
        )
        log.info("worker serving on %s:%d", *self.endpoint)

    # ------------------------------------------------------------------
    # Ops
    # ------------------------------------------------------------------
    def _ping(self, payload: dict) -> dict:
        return self.reply(
            "ping",
            uptime_s=self.uptime_s,
            in_flight=self.in_flight,
            counters=self.engine.status(),
        )

    def _stats(self, payload: dict) -> dict:
        return self.reply(
            "stats",
            uptime_s=self.uptime_s,
            in_flight=self.in_flight,
            shed=self.shed,
            capacity=self.capacity,
            retry_after=self.retry_after,
            stopping=self.stopping,
            counters=self.engine.status(),
        )

    def _metrics(self, payload: dict) -> dict:
        snapshot = self.engine.metrics.collect()
        return self.reply(
            "metrics", metrics=snapshot, exposition=render_prometheus(snapshot)
        )

    def _profile(self, payload: dict) -> dict:
        return self.reply("profile", profile=self.engine.profiler.snapshot())

    def _evaluate(self, payload: dict) -> dict:
        op = payload["op"]
        task = solve_task(payload) if op == "solve" else payload.get("task")
        results, stats = self.engine.run_batch([task])
        values, failures = _jsonify_results(results, payload.get("request_id"))
        return {
            "ok": True,
            "op": op,
            "value": values[0],
            "failure": failures[0] if failures else None,
            "stats": stats,
        }

    def _batch(self, payload: dict) -> dict:
        tasks = payload.get("tasks")
        if not isinstance(tasks, list):
            raise ServiceError("batch needs a list 'tasks'")
        results, stats = self.engine.run_batch(tasks)
        values, failures = _jsonify_results(results, payload.get("request_id"))
        return {
            "ok": True,
            "op": "batch",
            "values": values,
            "failures": failures,
            "stats": stats,
        }

    def finalize_reply(self, payload: dict, reply: dict, duration_s: float) -> None:
        """Span-time a work reply, attach telemetry, feed the recorder.

        Always strips the engine's raw ``span`` block out of the wire
        ``stats`` (sub-batch stats stay pure counters for aggregation);
        the timings resurface under ``reply["telemetry"]`` when the
        request carried a trace id.
        """
        self._hist_request.observe(duration_s)
        span: dict = {}
        stats = reply.get("stats")
        if isinstance(stats, dict):
            span = stats.pop("span", None) or {}
        request_id = payload.get("request_id")
        if request_id is None:
            return
        spans = {
            "queue_wait_s": round(span.get("queue_wait_s", 0.0), 6),
            "execute_s": round(span.get("execute_s", 0.0), 6),
            "total_s": round(duration_s, 6),
        }
        if reply.get("ok"):
            reply["telemetry"] = {
                "request_id": request_id,
                "node": "worker",
                "spans": spans,
            }
        if self.recorder is not None:
            event = {
                "node": "worker",
                "request_id": request_id,
                "op": payload.get("op"),
                "ok": bool(reply.get("ok")),
                "duration_s": round(duration_s, 6),
                "spans": spans,
            }
            if isinstance(stats, dict):
                for key in ("units", "executed", "disk_hits", "memo_hits", "coalesced", "failures"):
                    if key in stats:
                        event[key] = stats[key]
            self.recorder.record("request", **event)


def serve_in_thread(
    engine: EvaluationEngine, *, port: int = 0, **kwargs
) -> tuple[ServiceServer, threading.Thread]:
    """Start a server on a background thread (ephemeral port by default).

    The embedding entry point used by the tests, the benchmarks and
    ``examples/service_client.py``; keyword arguments are
    :class:`ServiceServer`'s. The caller owns the lifecycle::

        server, thread = serve_in_thread(engine)
        ... ServiceClient(*server.endpoint) ...
        server.shutdown(); server.server_close(); thread.join()
    """
    server = ServiceServer(engine, port=port, **kwargs)
    return server, server.start_thread()
