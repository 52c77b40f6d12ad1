"""The fleet role: one host endpoint fronting many evaluation daemons.

``OrchestratorServer`` runs on the same :mod:`service host
<repro.service.host>` as :class:`~repro.service.server.ServiceServer`
and speaks the same protocol, so every existing client — ``repro.cli
submit``, ``campaign run --via-service``, a bare socket — can point at
an orchestrator instead of a worker without changing a byte of what it
sends. The orchestrator owns no evaluation engine; it owns a
:class:`~repro.service.catalog.WorkerCatalog` and a :mod:`routing
strategy <repro.service.routing>`, and turns every work request into
forwarded requests against the fleet:

* ``evaluate`` / ``solve`` / ``search`` — routed whole to the
  strategy's first-choice worker for the request's routing key, failing
  over down the ranking when a worker dies mid-request;
* ``batch`` — split into per-worker sub-batches (each task routed by
  its structure fingerprint), dispatched concurrently, and merged back
  into one reply in the original request order; a worker lost mid-batch
  only re-dispatches *its* shard among the survivors;
* ``stats`` / ``metrics`` / ``profile`` — fanned out across the live
  workers and aggregated with the orchestrator's own view;
* ``ping`` — answered locally with a fleet summary.

The orchestrator has no capacity of its own: workers bound their own
admission and their overloads propagate back. Failover reuses the
client tier's :class:`RetryPolicy` *between* full candidate sweeps:
within a sweep each live candidate is tried once in ranking order (dead
workers accumulate failure streaks and are evicted by the catalog), and
only when every candidate has failed does the orchestrator back off and
sweep again. Transient failures with no survivors are reported with
their *typed* error (``ServiceUnavailable`` / ``ServiceOverloaded``),
which the client reconstructs — so a campaign runner's own retry loop
treats a briefly headless fleet as retryable rather than fatal.
"""

from __future__ import annotations

import contextlib
import json
import random
import threading
import time

from repro.evaluate.batch import TaskFailure
from repro.exceptions import (
    ServiceError,
    ServiceOverloaded,
    ServiceTimeout,
    ServiceUnavailable,
)
from repro.service.catalog import WorkerCatalog, WorkerInfo
from repro.service.client import RetryPolicy, ServiceClient
from repro.service.host import ServiceHost, solve_task
from repro.service.protocol import DEFAULT_HOST, DEFAULT_PORT
from repro.service.routing import RoutingStrategy, make_strategy, task_routing_key
from repro.telemetry import (
    FlightRecorder,
    MetricsRegistry,
    get_logger,
    merge_snapshots,
    render_prometheus,
)
from repro.telemetry.profile import Profiler, merge_profile_snapshots

log = get_logger("service.orchestrator")

#: Sentinel for "use the pool client's default deadline".
_UNSET = object()

#: The transport-level failures that trigger failover to the next
#: candidate (an overloaded worker is *alive* — it is skipped for the
#: current sweep without a failure mark against its liveness streak).
_FAILOVER_ERRORS = (ServiceTimeout, ServiceUnavailable)

#: Distinct workers a unit may fail on before it is quarantined.
DEFAULT_MAX_UNIT_ATTEMPTS = 3

#: Deadline (seconds) of each worker's reply to a ``stats``, ``metrics``
#: or ``profile`` fan-out.
CONTROL_TIMEOUT_S = 5.0

#: Deadline (seconds) of each liveness ping.
PING_TIMEOUT_S = 2.0


class _WorkerClientPool:
    """Per-worker stacks of reusable :class:`ServiceClient` connections.

    ``ServiceClient`` is not thread-safe, so concurrent shard dispatches
    lease one client each; returned clients are kept (bounded per
    worker) for the next request. A client whose exchange raised is
    closed and dropped — its connection state is unknown — and a lease
    keyed to a stale endpoint (worker re-registered on a new port) is
    replaced transparently.
    """

    def __init__(
        self,
        *,
        timeout: float | None = None,
        connect_timeout: float | None = None,
        max_idle: int = 4,
    ) -> None:
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.max_idle = max_idle
        self._lock = threading.Lock()
        self._idle: dict[str, list[ServiceClient]] = {}
        self._closed = False

    @contextlib.contextmanager
    def lease(self, worker: WorkerInfo):
        with self._lock:
            stack = self._idle.get(worker.name)
            client = stack.pop() if stack else None
        if client is not None and (client.host, client.port) != (
            worker.host,
            worker.port,
        ):
            client.close()
            client = None
        if client is None:
            client = ServiceClient(
                worker.host,
                worker.port,
                timeout=self.timeout,
                connect_timeout=self.connect_timeout,
                retry=None,
            )
        try:
            yield client
        except Exception:
            client.close()
            raise
        else:
            with self._lock:
                if not self._closed:
                    stack = self._idle.setdefault(worker.name, [])
                    if len(stack) < self.max_idle:
                        stack.append(client)
                        return
            client.close()

    def close_all(self) -> None:
        with self._lock:
            self._closed = True
            clients = [c for stack in self._idle.values() for c in stack]
            self._idle.clear()
        for client in clients:
            client.close()


class OrchestratorServer(ServiceHost):
    """The fleet role: the protocol's ops answered by a worker fleet."""

    role = "orchestrator"
    shed_label = "orchestrator"

    def __init__(
        self,
        catalog: WorkerCatalog,
        *,
        strategy: str | RoutingStrategy = "fingerprint_affinity",
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        retry: RetryPolicy | None = None,
        request_timeout: float | None = None,
        connect_timeout: float | None = 5.0,
        ping_interval: float | None = None,
        max_unit_attempts: int = DEFAULT_MAX_UNIT_ATTEMPTS,
        recorder: FlightRecorder | None = None,
    ) -> None:
        if ping_interval is not None and ping_interval <= 0:
            raise ServiceError(
                f"ping_interval must be > 0, got {ping_interval}"
            )
        if max_unit_attempts < 1:
            raise ServiceError(
                f"max_unit_attempts must be >= 1, got {max_unit_attempts}"
            )
        self.catalog = catalog
        self.strategy: RoutingStrategy = (
            make_strategy(strategy) if isinstance(strategy, str) else strategy
        )
        #: Backoff between full failover sweeps (``None`` = one sweep).
        self.retry = retry
        self.ping_interval = ping_interval
        self.max_unit_attempts = max_unit_attempts
        #: A :class:`~repro.service.fleet.FleetSupervisor` when this
        #: orchestrator's fleet is supervised (stats_reply surfaces it).
        self.supervisor = None
        self._pool = _WorkerClientPool(
            timeout=request_timeout, connect_timeout=connect_timeout
        )
        self._rng = random.Random(retry.seed if retry is not None else None)
        self._counters = {
            "requests": 0,
            "batches": 0,
            "units": 0,
            "failovers": 0,
            "quarantined": 0,
        }
        self._counters_lock = threading.Lock()
        self._ping_stop = threading.Event()
        self._ping_thread: threading.Thread | None = None
        self.recorder = recorder
        super().__init__(
            (host, port),
            {
                "ping": self._ping,
                "stats": lambda _: self.stats_reply(),
                "metrics": lambda _: self.metrics_reply(),
                "profile": lambda _: self.profile_reply(),
                "evaluate": self._evaluate,
                "solve": self._evaluate,
                "batch": self._batch,
                "search": self._search,
            },
        )
        self.metrics = MetricsRegistry()
        # Same clock as the request histograms, and the phase records below
        # reuse the very floats the histograms observe — so the profile
        # tree's root total reconciles exactly with the histogram sum.
        self.profiler = Profiler(clock=self.clock)
        m = self.metrics
        m.counter(
            "repro_orchestrator_requests_total", "work requests handled",
            fn=lambda: self._counters["requests"],
        )
        m.counter(
            "repro_orchestrator_batches_total", "batches sharded",
            fn=lambda: self._counters["batches"],
        )
        m.counter(
            "repro_orchestrator_units_total", "tasks received",
            fn=lambda: self._counters["units"],
        )
        m.counter(
            "repro_orchestrator_failovers_total", "shards/requests re-dispatched",
            fn=lambda: self._counters["failovers"],
        )
        m.counter(
            "repro_orchestrator_quarantined_total",
            "units quarantined after failing on distinct workers",
            fn=lambda: self._counters["quarantined"],
        )
        m.gauge(
            "repro_fleet_workers", "cataloged workers",
            fn=lambda: len(self.catalog),
        )
        m.gauge(
            "repro_fleet_live_workers", "workers currently live",
            fn=lambda: len(self.catalog.live_workers()),
        )
        m.gauge(
            "repro_orchestrator_in_flight", "dispatched requests awaiting a reply",
            fn=lambda: self.in_flight,
        )
        m.gauge(
            "repro_orchestrator_uptime_seconds", "seconds since start",
            fn=lambda: self.uptime_s,
        )
        self._hist_route = m.histogram(
            "repro_orchestrator_route_seconds", "time spent ranking/sharding"
        )
        self._hist_merge = m.histogram(
            "repro_orchestrator_merge_seconds", "time spent folding shard replies"
        )
        self._hist_request = m.histogram(
            "repro_orchestrator_request_seconds", "work-request latency at the orchestrator"
        )
        self._hist_shard = m.histogram(
            "repro_orchestrator_shard_seconds", "per-shard dispatch latency"
        )
        log.info(
            "orchestrator serving on %s:%d (strategy=%s, workers=%d)",
            *self.endpoint, self.strategy.name, len(self.catalog),
        )
        if ping_interval is not None:
            self._ping_thread = threading.Thread(
                target=self._ping_loop, daemon=True
            )
            self._ping_thread.start()

    # ------------------------------------------------------------------
    # Worker exchanges
    # ------------------------------------------------------------------
    def _send(
        self,
        worker: WorkerInfo,
        payload: dict,
        *,
        timeout=_UNSET,
        work: bool = True,
    ) -> dict:
        """One exchange with ``worker`` through the pool.

        ``work=False`` marks control traffic (liveness pings, stats
        fan-out) so the ``routed`` counter stays a pure work statistic.
        Any completed exchange — including a reply-level rejection —
        clears the worker's failure streak; only transport failures
        propagate without touching it (the caller decides whether they
        count toward eviction).
        """
        if work:
            self.catalog.note_routed(worker.name)
        self.catalog.begin(worker.name)
        try:
            try:
                with self._pool.lease(worker) as client:
                    if timeout is _UNSET:
                        reply = client.request(payload)
                    else:
                        reply = client.request(payload, timeout=timeout)
            except _FAILOVER_ERRORS:
                raise
            except ServiceError:
                self.catalog.record_success(worker.name)
                raise
        finally:
            self.catalog.end(worker.name)
        self.catalog.record_success(worker.name)
        return reply

    def forward_traced(self, payload: dict, key: str) -> dict:
        """:meth:`forward`, wrapped with hop accounting and span timing.

        The worker's own ``telemetry`` block is folded into this hop's
        entry, so the reply the client sees has one orchestrator-level
        block whose ``hops`` list tells the whole story — including the
        workers that lost the request before one answered.
        """
        started = self.clock()
        hops: list[dict] = []
        try:
            reply = self.forward(payload, key, hops=hops)
        finally:
            total_s = self.clock() - started
            self._hist_request.observe(total_s)
            self.profiler.record(("request",), total_s)
        request_id = payload.get("request_id")
        if request_id is not None:
            reply["telemetry"] = {
                "request_id": request_id,
                "node": "orchestrator",
                "spans": {"total_s": round(total_s, 6)},
                "hops": hops,
            }
        return reply

    def forward(self, payload: dict, key: str, hops: list | None = None) -> dict:
        """Route one whole request; fail over down the ranking.

        Within a sweep every live candidate is tried once in strategy
        order. Transport failures mark the worker (eviction after its
        streak fills) and move on; shed requests skip the worker without
        a mark. Between sweeps the retry policy backs off — honouring
        the largest ``retry_after`` hint seen — until attempts run out.
        ``hops`` (when given) accumulates one record per worker tried.
        """
        sweeps = 0
        max_sweeps = self.retry.max_attempts if self.retry is not None else 1
        while True:
            workers = self.catalog.live_workers()
            if not workers:
                raise ServiceUnavailable("no live workers in the fleet")
            last_transient: ServiceError | None = None
            overloaded: ServiceOverloaded | None = None
            for worker in self.strategy.rank(key, workers):
                try:
                    reply = self._send(worker, payload)
                except ServiceOverloaded as exc:
                    if hops is not None:
                        hops.append({"worker": worker.name, "status": "overloaded"})
                    if overloaded is None or (
                        (exc.retry_after or 0) > (overloaded.retry_after or 0)
                    ):
                        overloaded = exc
                except _FAILOVER_ERRORS as exc:
                    if hops is not None:
                        hops.append({
                            "worker": worker.name,
                            "status": "lost",
                            "error": type(exc).__name__,
                        })
                    log.warning(
                        "request to worker %s failed (%s); failing over",
                        worker.name, type(exc).__name__,
                    )
                    last_transient = exc
                    self.catalog.record_failure(worker.name, failover=True)
                    self._count(failovers=1)
                else:
                    if hops is not None:
                        worker_tel = reply.pop("telemetry", None)
                        hops.append({
                            "worker": worker.name,
                            "status": "ok",
                            "spans": (worker_tel or {}).get("spans"),
                        })
                    return reply
            sweeps += 1
            if sweeps >= max_sweeps:
                if last_transient is not None:
                    raise ServiceUnavailable(
                        "every live worker failed the request; "
                        f"last error: {last_transient}"
                    )
                raise overloaded
            time.sleep(
                self.retry.delay(
                    sweeps - 1,
                    retry_after=getattr(overloaded, "retry_after", None),
                    rng=self._rng,
                )
            )

    def run_batch(self, tasks: list, *, request_id: str | None = None) -> dict:
        """Shard a batch across the fleet and merge replies in order.

        ``request_id`` is forwarded into every per-worker sub-batch (and
        every failover re-dispatch), so one trace id follows the request
        through every recorder file it touches; the reply's ``telemetry``
        block carries the orchestrator spans (route / execute / merge)
        and one hop record per shard dispatch, lost or served.
        """
        started = self.clock()
        n = len(tasks)
        values: list = [None] * n
        failures: list[dict] = []
        agg = {
            "units": n,
            "executed": 0,
            "disk_hits": 0,
            "memo_hits": 0,
            "coalesced": 0,
            "failures": 0,
            "shards": 0,
            "failovers": 0,
            "quarantined": 0,
        }
        tele = {"route_s": 0.0, "merge_s": 0.0, "hops": []}
        if n:
            indexed = [
                (i, task, task_routing_key(task)) for i, task in enumerate(tasks)
            ]
            self._dispatch_shards(
                indexed, values, failures, agg,
                excluded=frozenset(), sweeps=0, attempts={},
                request_id=request_id, tele=tele,
            )
        failures.sort(key=lambda f: f.get("index", 0))
        agg["failures"] = len(failures)
        total_s = self.clock() - started
        self._hist_route.observe(tele["route_s"])
        self._hist_merge.observe(tele["merge_s"])
        self._hist_request.observe(total_s)
        self.profiler.record(("request",), total_s)
        self.profiler.record(("request", "route"), tele["route_s"])
        self.profiler.record(("request", "merge"), tele["merge_s"])
        reply = {
            "ok": True,
            "op": "batch",
            "values": values,
            "failures": failures,
            "stats": agg,
        }
        if request_id is not None:
            execute_s = max(0.0, total_s - tele["route_s"] - tele["merge_s"])
            reply["telemetry"] = {
                "request_id": request_id,
                "node": "orchestrator",
                "spans": {
                    "route_s": round(tele["route_s"], 6),
                    "execute_s": round(execute_s, 6),
                    "merge_s": round(tele["merge_s"], 6),
                    "total_s": round(total_s, 6),
                },
                "hops": tele["hops"],
            }
        return reply

    def _dispatch_shards(
        self,
        indexed: list[tuple[int, object, str]],
        values: list,
        failures: list[dict],
        agg: dict,
        *,
        excluded: frozenset[str],
        sweeps: int,
        attempts: dict[int, set[str]],
        request_id: str | None = None,
        tele: dict | None = None,
    ) -> None:
        """Dispatch ``(index, task, key)`` items; re-dispatch lost shards.

        ``excluded`` holds workers that already failed these items in
        the current sweep — a lost shard goes straight to its tasks'
        next-ranked candidates instead of waiting for the breaker. When
        every live worker has been excluded the sweep is over: the retry
        policy backs off and the exclusion set resets.

        ``attempts`` maps each unit's original index to the distinct
        workers that have failed it, across *every* sweep of this batch:
        a unit that accumulates ``max_unit_attempts`` distinct failed
        workers is **quarantined** — recorded as a structured failure
        with ``reason="quarantined"`` instead of re-entering the sweep,
        so one poison mapping can't wedge the whole campaign.

        Each shard is sent to its owner **once**: the first shard on the
        request thread, every other on one thread of its own, and all of
        them are joined before the merge. An overloaded or lost owner
        (deadline, dead connection) is transient: its shard takes the
        re-route above. Any other error — a worker's error reply, a
        reply frame too large or torn mid-line — is not: once every
        shard has joined it fails the whole request, with the same error
        reply :meth:`forward` gives an ``evaluate``.
        """
        t_route = self.clock()
        shards: dict[str, tuple[WorkerInfo, list]] = {}
        for item in indexed:
            workers = [
                w for w in self.catalog.live_workers() if w.name not in excluded
            ]
            if not workers:
                workers = self.catalog.live_workers()
            if not workers:
                raise ServiceUnavailable("no live workers in the fleet")
            owner = self.strategy.rank(item[2], workers)[0]
            shards.setdefault(owner.name, (owner, []))[1].append(item)
        agg["shards"] += len(shards)
        if tele is not None:
            tele["route_s"] += self.clock() - t_route

        groups = list(shards.values())
        # One ``(status, owner, items, reply or exception)`` slot per
        # shard, so the merge (and its hops) follows shard order.
        outcomes: list[tuple | None] = [None] * len(groups)

        def run_shard(k: int) -> None:
            owner, items = groups[k]
            payload = {"op": "batch", "tasks": [task for _, task, _ in items]}
            if request_id is not None:
                payload["request_id"] = request_id
            t0 = self.clock()
            try:
                reply = self._send(owner, payload)
            except ServiceOverloaded as exc:
                outcomes[k] = ("overloaded", owner, items, exc)
            except _FAILOVER_ERRORS as exc:
                self.catalog.record_failure(owner.name, failover=True)
                self._count(failovers=1)
                outcomes[k] = ("lost", owner, items, exc)
            except Exception as exc:
                # Stored for the request thread to raise: an exception
                # escaping a shard thread would be lost with its slot.
                outcomes[k] = ("error", owner, items, exc)
            else:
                self._hist_shard.observe(self.clock() - t0)
                outcomes[k] = ("ok", owner, items, reply)

        threads = [
            threading.Thread(target=run_shard, args=(k,), daemon=True)
            for k in range(1, len(groups))
        ]
        for thread in threads:
            thread.start()
        run_shard(0)
        for thread in threads:
            thread.join()
        for status, _, _, extra in outcomes:
            if status == "error":
                raise extra

        t_merge = self.clock()
        retry_items: list[tuple[int, object, str]] = []
        failed_names: set[str] = set()
        last_error: ServiceError | None = None
        retry_after: float | None = None
        for status, owner, items, extra in outcomes:
            if tele is not None:
                hop = {"worker": owner.name, "status": status, "units": len(items)}
                if status == "ok":
                    worker_tel = extra.pop("telemetry", None)
                    if worker_tel is not None:
                        hop["spans"] = worker_tel.get("spans")
                else:
                    hop["error"] = type(extra).__name__
                tele["hops"].append(hop)
            if status == "lost":
                log.warning(
                    "shard of %d task(s) lost on worker %s (%s); re-dispatching",
                    len(items), owner.name, type(extra).__name__,
                )
            if status == "ok":
                reply = extra
                sub_values = reply.get("values", [])
                for (index, _, _), value in zip(items, sub_values):
                    values[index] = value
                for failure in reply.get("failures", []):
                    local = failure.get("index")
                    record = dict(failure)
                    if isinstance(local, int) and 0 <= local < len(items):
                        record["index"] = items[local][0]
                    failures.append(record)
                sub_stats = reply.get("stats", {})
                for field in ("executed", "disk_hits", "memo_hits", "coalesced"):
                    agg[field] += int(sub_stats.get(field, 0) or 0)
            else:
                last_error = extra
                failed_names.add(owner.name)
                if status == "overloaded" and extra.retry_after is not None:
                    retry_after = max(retry_after or 0.0, extra.retry_after)
                if status == "lost":
                    agg["failovers"] += len(items)
                    for index, _, _ in items:
                        attempts.setdefault(index, set()).add(owner.name)
                for item in items:
                    index = item[0]
                    if (
                        status == "lost"
                        and len(attempts.get(index, ())) >= self.max_unit_attempts
                    ):
                        names = sorted(attempts[index])
                        record = TaskFailure(
                            error=type(extra).__name__,
                            message=(
                                f"unit failed on {len(names)} distinct "
                                f"worker(s) ({', '.join(names)}); "
                                f"last error: {extra}"
                            ),
                            request_id=request_id,
                            reason="quarantined",
                        ).to_dict()
                        record["index"] = index
                        failures.append(record)
                        agg["quarantined"] += 1
                        self._count(quarantined=1)
                        log.error(
                            "quarantining unit %d after %d distinct "
                            "worker failures (%s)", index, len(names),
                            ", ".join(names),
                        )
                    else:
                        retry_items.append(item)
        if tele is not None:
            tele["merge_s"] += self.clock() - t_merge

        if not retry_items:
            return
        retry_items.sort(key=lambda item: item[0])
        new_excluded = excluded | failed_names
        live = {w.name for w in self.catalog.live_workers()}
        if not live:
            raise ServiceUnavailable(
                "no live workers in the fleet; "
                f"last error: {last_error}"
            )
        if live - new_excluded:
            # Same sweep: survivors remain — re-route the lost shard.
            self._dispatch_shards(
                retry_items, values, failures, agg,
                excluded=new_excluded, sweeps=sweeps, attempts=attempts,
                request_id=request_id, tele=tele,
            )
            return
        sweeps += 1
        max_sweeps = self.retry.max_attempts if self.retry is not None else 1
        if sweeps >= max_sweeps:
            if isinstance(last_error, ServiceOverloaded):
                raise last_error
            raise ServiceUnavailable(
                "every live worker failed the batch shard; "
                f"last error: {last_error}"
            )
        time.sleep(
            self.retry.delay(sweeps - 1, retry_after=retry_after, rng=self._rng)
        )
        self._dispatch_shards(
            retry_items, values, failures, agg,
            excluded=frozenset(), sweeps=sweeps, attempts=attempts,
            request_id=request_id, tele=tele,
        )

    # ------------------------------------------------------------------
    # Fleet health
    # ------------------------------------------------------------------
    def check_workers(self) -> dict[str, bool]:
        """Ping the breaker's candidates once; returns ``{name: alive}``.

        A success clears the failure streak and closes the breaker (on
        probation); a failure extends the streak (tripping at the
        threshold). Workers whose breaker is open and still cooling are
        *skipped* and reported not-alive — the whole point of the
        breaker is that nothing probes before the cooldown elapses.
        Taking the candidate snapshot promotes due breakers to
        half-open, so their ping here is the single half-open trial.
        Pings count as health traffic, not routed work.
        """
        candidates = {w.name for w in self.catalog.live_workers()}
        results: dict[str, bool] = {}
        for worker in self.catalog.workers():
            if worker.name not in candidates:
                results[worker.name] = False
                continue
            try:
                self._send(
                    worker, {"op": "ping"},
                    timeout=PING_TIMEOUT_S, work=False,
                )
            except ServiceError:
                self.catalog.record_failure(worker.name)
                results[worker.name] = False
            else:
                results[worker.name] = True
        return results

    def _ping_loop(self) -> None:  # pragma: no cover - timing-dependent
        while not self._ping_stop.wait(self.ping_interval):
            try:
                self.check_workers()
            except Exception:
                log.exception("liveness pass failed")

    # ------------------------------------------------------------------
    # Ops
    # ------------------------------------------------------------------
    def _fan_out(self, op: str) -> list[tuple[WorkerInfo, dict | None]]:
        """Send control ``op`` to every live worker, in catalog order.

        Returns one ``(worker, reply)`` per cataloged worker; ``reply``
        is ``None`` for a worker that is not live or whose exchange
        failed, and a failed exchange counts against its breaker.
        """
        results: list[tuple[WorkerInfo, dict | None]] = []
        for worker in self.catalog.workers():
            reply = None
            if worker.live:
                try:
                    reply = self._send(
                        worker, {"op": op}, timeout=CONTROL_TIMEOUT_S, work=False
                    )
                except ServiceError:
                    self.catalog.record_failure(worker.name)
            results.append((worker, reply))
        return results

    def _ping(self, payload: dict) -> dict:
        return self.reply(
            "ping",
            uptime_s=self.uptime_s,
            in_flight=self.in_flight,
            strategy=self.strategy.name,
            workers={
                "total": len(self.catalog),
                "live": len(self.catalog.live_workers()),
            },
            # No engine here: counters live on the workers (see the
            # stats op for the aggregated view).
            counters=None,
        )

    def stats_reply(self) -> dict:
        """The aggregated fleet view behind the ``stats`` op."""
        rows: list[dict] = []
        totals = {
            "batches": 0,
            "units": 0,
            "executed": 0,
            "disk_hits": 0,
            "memo_hits": 0,
            "failures": 0,
        }
        cache = {"requests": 0, "hits": 0, "misses": 0, "evictions": 0}
        reporting = 0
        for worker, reply in self._fan_out("stats"):
            reported = None
            if reply is not None:
                reporting += 1
                counters = reply.get("counters") or {}
                requests = counters.get("requests") or {}
                for field in totals:
                    totals[field] += int(requests.get(field, 0) or 0)
                structure = counters.get("structure_cache") or {}
                for field in cache:
                    cache[field] += int(structure.get(field, 0) or 0)
                reported = {
                    "version": reply.get("version"),
                    "uptime_s": reply.get("uptime_s"),
                    "in_flight": reply.get("in_flight"),
                    "capacity": reply.get("capacity"),
                    "shed": reply.get("shed"),
                    "requests": requests,
                    "structure_cache": structure,
                }
            # Snapshot the row *after* the probe so a just-failed (or
            # just-revived) worker reports its current liveness.
            row = worker.stats()
            row["reported"] = reported
            rows.append(row)
        lookups = cache["hits"] + cache["misses"]
        aggregate = dict(cache)
        aggregate["hit_rate"] = (cache["hits"] / lookups) if lookups else 0.0
        with self._counters_lock:
            local = dict(self._counters)
        return self.reply(
            "stats",
            uptime_s=self.uptime_s,
            in_flight=self.in_flight,
            stopping=self.stopping,
            strategy=self.strategy.name,
            orchestrator=local,
            workers=rows,
            workers_reporting=reporting,
            totals=totals,
            structure_cache=aggregate,
            supervisor=(
                self.supervisor.stats() if self.supervisor is not None else None
            ),
        )

    def metrics_reply(self) -> dict:
        """The fleet-merged view behind the ``metrics`` op.

        Scrapes every live worker's registry snapshot and folds it with
        the orchestrator's own: worker histograms merge elementwise
        (identical bucket bounds), counters sum, and the orchestrator's
        instruments pass through under their distinct names.
        """
        snapshots = [self.metrics.collect()]
        for _, reply in self._fan_out("metrics"):
            snapshot = reply.get("metrics") if reply is not None else None
            if isinstance(snapshot, dict):
                snapshots.append(snapshot)
        merged = merge_snapshots(*snapshots)
        return self.reply(
            "metrics",
            workers_reporting=len(snapshots) - 1,
            metrics=merged,
            exposition=render_prometheus(merged),
        )

    def profile_reply(self) -> dict:
        """The fleet-merged view behind the ``profile`` op.

        Scrapes every live worker's profiler snapshot and merges the
        phase trees (calls and totals sum, self-times are recomputed)
        under the same identical-shape discipline as the histogram
        merge; the orchestrator's own route/merge/request tree rides
        alongside under ``orchestrator``.
        """
        snapshots: list[dict] = []
        for _, reply in self._fan_out("profile"):
            snapshot = reply.get("profile") if reply is not None else None
            if isinstance(snapshot, dict):
                snapshots.append(snapshot)
        return self.reply(
            "profile",
            workers_reporting=len(snapshots),
            profile=merge_profile_snapshots(*snapshots),
            orchestrator=self.profiler.snapshot(),
        )

    def _evaluate(self, payload: dict) -> dict:
        # The routing key of a solve is the key of the task it desugars
        # to on the worker — so a solve and the equivalent evaluate land
        # on the same shard.
        task = (
            solve_task(payload) if payload["op"] == "solve"
            else payload.get("task")
        )
        reply = self.forward_traced(payload, task_routing_key(task))
        self._count(requests=1, units=1)
        return reply

    def _batch(self, payload: dict) -> dict:
        tasks = payload.get("tasks")
        if not isinstance(tasks, list):
            raise ServiceError("batch needs a list 'tasks'")
        reply = self.run_batch(tasks, request_id=payload.get("request_id"))
        self._count(requests=1, batches=1, units=len(tasks))
        return reply

    def _search(self, payload: dict) -> dict:
        params = payload.get("params")
        if not isinstance(params, dict):
            raise ServiceError("search needs an object 'params'")
        key = json.dumps(params, sort_keys=True, default=repr)
        reply = self.forward_traced(payload, key)
        self._count(requests=1)
        return reply

    def finalize_reply(self, payload: dict, reply: dict, duration_s: float) -> None:
        """Feed the flight recorder after a work reply is built.

        One ``request`` event for the request itself plus one ``hop``
        event per worker dispatch (served, lost, or shed) — the records
        ``cli trace`` joins across orchestrator and worker files.
        """
        request_id = payload.get("request_id")
        if request_id is None or self.recorder is None:
            return
        telemetry = reply.get("telemetry") or {}
        for hop in telemetry.get("hops", []):
            self.recorder.record("hop", node="orchestrator", request_id=request_id, **hop)
        event = {
            "node": "orchestrator",
            "request_id": request_id,
            "op": payload.get("op"),
            "ok": bool(reply.get("ok")),
            "duration_s": round(duration_s, 6),
            "spans": telemetry.get("spans"),
        }
        stats = reply.get("stats")
        if isinstance(stats, dict):
            for key in ("units", "executed", "failures", "shards", "failovers"):
                if key in stats:
                    event[key] = stats[key]
        self.recorder.record("request", **event)

    def stop_workers(self, *, timeout: float = 5.0) -> dict[str, bool]:
        """Best-effort ``shutdown`` to every cataloged worker.

        Only the process that *owns* the workers (``repro.cli fleet``,
        :func:`~repro.service.fleet.local_fleet`) calls this — an
        orchestrator pointed at externally managed daemons must not tear
        them down. Fresh connections are used so an in-flight lease is
        never hijacked.
        """
        results: dict[str, bool] = {}
        for worker in self.catalog.workers():
            try:
                with ServiceClient(
                    worker.host, worker.port, timeout=timeout
                ) as client:
                    client.shutdown()
                results[worker.name] = True
            except ServiceError:
                results[worker.name] = False
        return results

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    def _count(self, **deltas: int) -> None:
        with self._counters_lock:
            for key, delta in deltas.items():
                self._counters[key] = self._counters.get(key, 0) + delta

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def server_close(self) -> None:
        self._ping_stop.set()
        if self._ping_thread is not None:
            self._ping_thread.join(timeout=5.0)
            self._ping_thread = None
        super().server_close()
        self._pool.close_all()


def serve_orchestrator_in_thread(
    catalog: WorkerCatalog, *, port: int = 0, **kwargs
) -> tuple[OrchestratorServer, threading.Thread]:
    """Start an orchestrator on a background thread (ephemeral port).

    The embedding entry point used by the tests and
    :func:`~repro.service.fleet.local_fleet`; keyword arguments are
    :class:`OrchestratorServer`'s. The caller owns the lifecycle::

        orch, thread = serve_orchestrator_in_thread(catalog)
        ... ServiceClient(*orch.endpoint) ...
        orch.shutdown(); orch.server_close(); thread.join()
    """
    server = OrchestratorServer(catalog, port=port, **kwargs)
    return server, server.start_thread()
