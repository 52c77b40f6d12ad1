"""Client library for the evaluation service.

:class:`ServiceClient` keeps one connection to a running server and
exposes the protocol operations as methods returning plain Python
values. Transport problems and server-side rejections surface through
the typed :class:`~repro.exceptions.ServiceError` taxonomy:

* :class:`~repro.exceptions.ServiceTimeout` — the per-request deadline
  elapsed with no reply (the socket timeout stays *armed* for the whole
  request/response exchange, so a hung server can never block a caller
  past its deadline);
* :class:`~repro.exceptions.ServiceUnavailable` — nothing listening, or
  the connection died mid-exchange;
* :class:`~repro.exceptions.ServiceOverloaded` — the server shed the
  request at admission; carries its ``retry_after`` hint;
* bare :class:`~repro.exceptions.ServiceError` — a rejection a retry
  would only repeat (malformed request, unknown op).

The protocol operations are idempotent — the server's coalescing queue
and score caches dedupe a retried request against work the lost reply
already paid for — so the client can retry the transient errors above
through a :class:`RetryPolicy` (exponential backoff plus deterministic
jitter, honouring ``retry_after``). Per-task evaluation failures come
back as structured records (see :meth:`ServiceClient.evaluate_batch`),
mirroring ``evaluate_tasks(on_error="record")``.

The client is what ``repro.cli submit/ping/stats/shutdown`` and
``campaign run --via-service`` are built on; anything with a socket can
speak the same one-JSON-object-per-line protocol directly.
"""

from __future__ import annotations

import dataclasses
import random
import socket
import time

from repro.exceptions import (
    ServiceError,
    ServiceOverloaded,
    ServiceTimeout,
    ServiceUnavailable,
)
from repro.service.protocol import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    recv_frame,
    send_frame,
)
from repro.telemetry import new_request_id

#: Sentinel distinguishing "not passed" from an explicit ``None``
#: (``None`` means "no deadline" / "no retries" respectively).
_UNSET = object()

#: The transient errors a retry can fix.
RETRYABLE_ERRORS = (ServiceTimeout, ServiceUnavailable, ServiceOverloaded)


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter for idempotent service requests.

    Attempt ``k`` (0-based) sleeps ``base_delay * multiplier**k``,
    capped at ``max_delay``, scaled by a jitter factor drawn uniformly
    from ``[1 - jitter, 1 + jitter]``. An overloaded server's
    ``retry_after`` hint raises the floor of that sleep — backing off
    *less* than the server asked for would just feed the overload.

    ``seed`` makes the jitter stream deterministic (chaos tests assert
    exact schedules); the default draws from a fresh ``random.Random``.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.25
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if not 0 <= self.jitter < 1:
            raise ValueError("jitter must be in [0, 1)")

    def delay(
        self,
        attempt: int,
        *,
        retry_after: float | None = None,
        rng: random.Random | None = None,
    ) -> float:
        """Sleep before retry number ``attempt`` (0-based)."""
        backoff = min(self.max_delay, self.base_delay * self.multiplier**attempt)
        if self.jitter:
            rng = rng if rng is not None else random.Random()
            backoff *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        if retry_after is not None:
            backoff = max(backoff, retry_after)
        return backoff


class ServiceClient:
    """One connection to an evaluation service (lazy, reconnecting).

    ``timeout`` is the per-request deadline: it stays armed on the
    socket during the whole request/response exchange, and every
    operation accepts a ``timeout=`` override for per-op deadlines
    (``None`` waits however long the evaluation takes).
    ``connect_timeout`` guards only the connect (default: ``timeout``).
    ``retry`` enables automatic retries of the transient error types for
    every operation but ``shutdown``, which is never retried: the others
    are idempotent.
    """

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        *,
        timeout: float | None = None,
        connect_timeout: float | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.connect_timeout = (
            connect_timeout if connect_timeout is not None else timeout
        )
        self.retry = retry
        #: Transport retries this client performed (for operators/tests).
        self.retries = 0
        #: Trace id of the most recent request (minted per logical
        #: request and reused across its retries, so one id follows the
        #: request through orchestrator and worker flight recorders).
        self.last_request_id: str | None = None
        #: The ``telemetry`` block of the most recent successful work
        #: reply (per-hop span timings), or None.
        self.last_telemetry: dict | None = None
        self._rng = random.Random(retry.seed if retry is not None else None)
        self._sock: socket.socket | None = None
        self._rfile = None
        self._wfile = None

    # ------------------------------------------------------------------
    # Connection plumbing
    # ------------------------------------------------------------------
    def _connect(self) -> None:
        if self._sock is not None:
            return
        try:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout
            )
        except OSError as exc:
            raise ServiceUnavailable(
                f"cannot reach evaluation service at "
                f"{self.host}:{self.port}: {exc}"
            ) from None
        # Keep the deadline armed: a request to a hung server must raise
        # ServiceTimeout at the deadline, never block forever. timeout
        # None preserves the wait-as-long-as-it-takes behaviour for
        # legitimately long batch evaluations.
        self._sock.settimeout(self.timeout)
        self._rfile = self._sock.makefile("rb")
        self._wfile = self._sock.makefile("wb")

    def close(self) -> None:
        for closer in (self._rfile, self._wfile, self._sock):
            if closer is not None:
                try:
                    closer.close()
                except OSError:
                    pass
        self._sock = self._rfile = self._wfile = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Request core
    # ------------------------------------------------------------------
    def _request_once(self, payload: dict, *, timeout=_UNSET) -> dict:
        """One framed exchange; raises the typed error taxonomy."""
        self._connect()
        deadline = self.timeout if timeout is _UNSET else timeout
        try:
            if self._sock.gettimeout() != deadline:
                self._sock.settimeout(deadline)
            send_frame(self._wfile, payload)
            reply = recv_frame(self._rfile)
        except socket.timeout:
            # The connection is now desynchronized (a late reply would
            # answer the wrong request): drop it; a retry reconnects.
            self.close()
            raise ServiceTimeout(
                f"service at {self.host}:{self.port} sent no reply "
                f"within {deadline}s"
            ) from None
        except (OSError, ServiceError) as exc:
            self.close()
            if isinstance(exc, ServiceError):
                raise
            raise ServiceUnavailable(
                f"service connection to {self.host}:{self.port} failed: {exc}"
            ) from None
        if reply is None:
            self.close()
            raise ServiceUnavailable(
                f"service at {self.host}:{self.port} closed the connection"
            )
        if not reply.get("ok"):
            # Typed errors survive one forwarding hop: an orchestrator
            # that lost its whole fleet mid-request replies with the
            # transient error *type*, and reconstructing it here keeps
            # the failure retryable instead of flattening it into a
            # permanent ServiceError.
            error_type = reply.get("error_type")
            message = reply.get("error", "service refused the request")
            if error_type == "ServiceOverloaded":
                raise ServiceOverloaded(
                    message, retry_after=reply.get("retry_after")
                )
            if error_type == "ServiceUnavailable":
                raise ServiceUnavailable(message)
            if error_type == "ServiceTimeout":
                raise ServiceTimeout(message)
            raise ServiceError(message)
        self.last_telemetry = reply.get("telemetry")
        return reply

    def request(self, payload: dict, *, timeout=_UNSET, retry=_UNSET) -> dict:
        """Send one frame, await its reply; raise on any error reply.

        ``timeout`` overrides the client deadline for this request
        (``None`` = no deadline). ``retry`` overrides the client policy
        (``None`` = exactly one attempt). Only the transient error types
        are retried; each retry reconnects and re-sends — safe for the
        idempotent protocol operations.

        Every frame carries a ``request_id`` trace token, minted here
        unless the caller supplied one; retries re-send the *same* id,
        so a request that failed over inside the fleet is still one
        trace in the flight recorders.
        """
        if "request_id" not in payload:
            payload = dict(payload, request_id=new_request_id())
        self.last_request_id = payload["request_id"]
        policy = self.retry if retry is _UNSET else retry
        if policy is None:
            return self._request_once(payload, timeout=timeout)
        attempt = 0
        while True:
            try:
                return self._request_once(payload, timeout=timeout)
            except RETRYABLE_ERRORS as exc:
                attempt += 1
                if attempt >= policy.max_attempts:
                    raise
                self.retries += 1
                time.sleep(
                    policy.delay(
                        attempt - 1,
                        retry_after=getattr(exc, "retry_after", None),
                        rng=self._rng,
                    )
                )

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def ping(self, *, timeout=_UNSET) -> dict:
        """Liveness + readiness probe.

        Returns ``{"version", "uptime_s", "in_flight", "counters"}`` —
        uptime and the dispatched-request count tell an operator whether
        the server is merely *alive* or actually *serving*, and
        ``counters`` carries the engine/cache/queue/pool statistics.
        """
        reply = self.request({"op": "ping"}, timeout=timeout)
        result = {
            "version": reply.get("version"),
            "uptime_s": reply.get("uptime_s"),
            "in_flight": reply.get("in_flight"),
            "counters": reply.get("counters"),
        }
        # Fleet-aware fields (an orchestrator answers with its role,
        # routing strategy and live-worker summary instead of engine
        # counters); absent on a plain worker daemon.
        for key in ("role", "strategy", "workers"):
            if key in reply:
                result[key] = reply[key]
        return result

    def stats(self, *, timeout=_UNSET) -> dict:
        """Operator statistics: admission queue, shedding, pool restarts.

        The ``stats`` op bypasses admission control (like ``ping``), so
        an overloaded server still answers it within the deadline.
        """
        reply = self.request({"op": "stats"}, timeout=timeout)
        return {k: v for k, v in reply.items() if k not in ("ok", "op")}

    def metrics(self, *, timeout=_UNSET) -> dict:
        """Scrape the server's metrics registry.

        Returns ``{"metrics": snapshot, "exposition": text, ...}`` —
        the JSON snapshot for programs, the Prometheus text exposition
        for scrapers. An orchestrator answers with the fleet-merged
        histograms and counters plus ``workers_reporting``.
        """
        reply = self.request({"op": "metrics"}, timeout=timeout)
        return {k: v for k, v in reply.items() if k not in ("ok", "op")}

    def profile(self, *, timeout=_UNSET) -> dict:
        """Fetch the per-phase cost-attribution tree.

        Returns ``{"profile": snapshot, ...}`` — a worker answers with
        its engine profiler's phase tree; an orchestrator answers with
        the fleet-merged tree plus its own route/merge/request tree
        under ``orchestrator`` and ``workers_reporting``.
        """
        reply = self.request({"op": "profile"}, timeout=timeout)
        return {k: v for k, v in reply.items() if k not in ("ok", "op")}

    def evaluate(self, task: dict, *, timeout=_UNSET) -> float:
        """Score one wire-format task; a per-task failure raises."""
        reply = self.request({"op": "evaluate", "task": task}, timeout=timeout)
        failure = reply.get("failure")
        if failure:
            raise ServiceError(
                f"evaluation failed ({failure.get('error')}): "
                f"{failure.get('message')}"
            )
        return reply["value"]

    def solve(
        self,
        system_name: str,
        *,
        solver: str = "deterministic",
        model: str = "overlap",
        options: dict | None = None,
        timeout=_UNSET,
    ) -> float:
        """Score a named example system (the CLI ``solve`` convenience)."""
        reply = self.request(
            {
                "op": "solve",
                "system_name": system_name,
                "solver": solver,
                "model": model,
                "options": options or {},
            },
            timeout=timeout,
        )
        failure = reply.get("failure")
        if failure:
            raise ServiceError(
                f"solve failed ({failure.get('error')}): "
                f"{failure.get('message')}"
            )
        return reply["value"]

    def evaluate_batch(
        self, tasks: list[dict], *, timeout=_UNSET
    ) -> tuple[list, list[dict], dict]:
        """Score a task batch: ``(values, failures, stats)``.

        ``values`` aligns with ``tasks`` (``None`` in failed slots);
        ``failures`` holds ``{"index", "error", "message"}`` records;
        ``stats`` is the server's cost breakdown for this batch
        (``executed`` / ``disk_hits`` / ``memo_hits`` / ``coalesced``).
        """
        reply = self.request({"op": "batch", "tasks": tasks}, timeout=timeout)
        return (
            reply.get("values", []),
            reply.get("failures", []),
            reply.get("stats", {}),
        )

    def shutdown(self, *, timeout=_UNSET) -> None:
        """Ask the server to stop; the connection is closed afterwards.

        Never retried: after a lost acknowledgement the server is most
        likely already stopping, and a retry would misreport that as a
        failure to shut down.
        """
        self.request({"op": "shutdown"}, timeout=timeout, retry=None)
        self.close()


def wait_for_service(
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    *,
    timeout: float = 10.0,
    interval: float = 0.1,
) -> dict:
    """Ping until the service answers (or ``timeout`` elapses).

    Returns the first successful ping reply — the startup handshake for
    scripts that just launched ``repro.cli serve`` in the background.

    Every attempt carries its own request deadline capped by the time
    remaining, so a server that *accepts* connections but never replies
    (wedged handler, half-started process) exhausts the overall
    ``timeout`` instead of hanging the caller on one socket forever.
    """
    deadline = time.monotonic() + timeout
    last_error: ServiceError | None = None
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            if last_error is not None:
                raise last_error
            raise ServiceTimeout(
                f"service at {host}:{port} did not answer within {timeout}s"
            )
        per_attempt = min(interval + 1.0, remaining)
        try:
            with ServiceClient(
                host, port, timeout=per_attempt, retry=None
            ) as client:
                return client.ping()
        except ServiceError as exc:
            last_error = exc
            if time.monotonic() >= deadline:
                raise
            time.sleep(min(interval, max(0.0, deadline - time.monotonic())))
