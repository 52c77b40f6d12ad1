"""The loopback host both service roles run on.

:class:`ServiceHost` is a threaded TCP server (stdlib ``socketserver``)
that owns everything a role does not decide for itself. A role — the
worker :class:`~repro.service.server.ServiceServer` or the fleet
:class:`~repro.service.orchestrator.OrchestratorServer` — fills an
``ops`` table (operation name → handler taking the request frame and
returning the reply) and a :meth:`~ServiceHost.finalize_reply` hook,
and contains no socket code.

The host contract:

* **Frames.** Each connection is a loop of newline-delimited JSON
  frames until EOF. A malformed frame gets one error reply and closes
  the connection. Each request is admitted or shed, dispatched, and
  answered on the same connection, which stays usable after an error
  reply.
* **Admission.** ``CONTROL_OPS`` (the observe-and-stop plane) always
  pass, so a saturated or draining server can still be watched and
  stopped. Work is refused while the server drains, or while
  ``capacity`` requests are dispatched (``None`` = unbounded). A
  refused request is *shed*: counted, never queued, and answered at
  once with an ``overloaded`` reply carrying a ``retry_after`` hint.
* **Dispatch.** ``shutdown`` is answered by the host itself; any other
  op goes to its handler in ``ops``, and an unknown op gets an error
  reply listing the supported ones. :class:`ServiceOverloaded` raised
  by a handler becomes an ``overloaded`` reply; any other exception
  becomes an error reply carrying the exception's type name, which the
  client turns back into the typed exception. A bug in a handler never
  kills the server.
* **Work replies.** After a work op is dispatched the host calls
  :meth:`~ServiceHost.finalize_reply` with the request, the reply and
  the dispatch time, before the reply is sent.
* **Faults.** A role with a :class:`~repro.service.faults.FaultInjector`
  in ``faults`` gets the chaos hooks: hang and flap before work, delay
  and drop after any reply but ``shutdown``'s.
* **Drain.** A ``shutdown`` frame stops admitting work, replies, and
  stops ``serve_forever`` from a side thread. Work already dispatched
  still sends its reply; :meth:`~ServiceHost.wait_for_inflight` is the
  barrier to wait on before tearing the role's resources down.

Servers bind loopback by default and speak an unauthenticated protocol:
they are a local evaluation accelerator, not an internet service.
"""

from __future__ import annotations

import contextlib
import os
import socket
import socketserver
import threading
import time
from collections.abc import Callable

from repro._version import __version__
from repro.exceptions import ServiceError, ServiceOverloaded
from repro.service.faults import FaultInjector
from repro.service.protocol import (
    error_reply,
    overloaded_reply,
    publish_ready_file,
    recv_frame,
    send_frame,
)
from repro.telemetry import get_logger
from repro.telemetry.clock import monotonic_clock

log = get_logger("service.host")

#: Operations admitted even when the server is saturated or draining —
#: the observe-and-stop plane must stay reachable exactly when the
#: work plane is refusing traffic.
CONTROL_OPS = frozenset({"ping", "stats", "metrics", "profile", "shutdown"})

#: Operations that do evaluation work (admission-bounded, span-timed).
WORK_OPS = frozenset({"evaluate", "solve", "batch"})

#: Default ``retry_after`` hint (seconds) in shed replies.
DEFAULT_RETRY_AFTER = 1.0


def solve_task(payload: dict) -> dict:
    """The ``evaluate`` task a ``solve`` frame stands for.

    Both roles desugar through this one function, so a ``solve`` and
    the equivalent ``evaluate`` score identically on a worker and route
    to the same shard on an orchestrator.
    """
    name = payload.get("system_name")
    if not isinstance(name, str) or not name:
        raise ServiceError("solve needs a string 'system_name'")
    return {
        "system": {"kind": "named", "params": {"name": name}},
        "solver": payload.get("solver", "deterministic"),
        "model": payload.get("model", "overlap"),
        "options": payload.get("options", {}),
    }


class _Connection(socketserver.StreamRequestHandler):
    """One connection: a loop of request frames until EOF or shutdown."""

    def handle(self) -> None:  # pragma: no cover - exercised via sockets
        host: ServiceHost = self.server
        while True:
            try:
                payload = recv_frame(self.rfile)
            except ServiceError as exc:
                with contextlib.suppress(OSError):
                    send_frame(self.wfile, error_reply(str(exc)))
                return
            if payload is None:
                return
            op = payload.get("op")
            if not isinstance(op, str):
                op = None  # neither a control nor a work op; dispatch rejects it
            if not host.try_begin_request(op):
                try:
                    send_frame(self.wfile, host.shed_reply())
                except OSError:
                    return
                continue
            try:
                faults = host.faults
                if faults is not None and op in WORK_OPS:
                    # Pre-work: a hung worker stalls before touching the
                    # engine (its admission slot stays held, like a
                    # wedged process at capacity), and a flapping one
                    # alternates severed connections with served
                    # requests — the breaker's nemesis.
                    faults.hang_if_armed()
                    if faults.flap_now():
                        return
                started = host.clock()
                reply = host.dispatch(op, payload)
                if op in WORK_OPS:
                    host.finalize_reply(payload, reply, host.clock() - started)
                faults = host.faults
                if faults is not None and op != "shutdown":
                    # Post-work: a delayed reply must trip the client's
                    # deadline, a dropped one its retry — and the retry
                    # must be absorbed by the caches.
                    faults.sleep_if_delayed()
                    if faults.take("drop"):
                        return
                try:
                    send_frame(self.wfile, reply)
                except OSError:
                    return
            finally:
                host._end_request()
            if op == "shutdown":
                # shutdown() blocks until serve_forever() returns, and
                # must not be called from the serving thread itself.
                threading.Thread(target=host.shutdown, daemon=True).start()
                return


class ServiceHost(socketserver.ThreadingTCPServer):
    """Threaded loopback TCP server behind one role's ``ops`` table."""

    allow_reuse_address = True
    daemon_threads = True

    #: The ``role`` field of this server's replies.
    role: str
    #: How shed replies name this server.
    shed_label: str
    #: Chaos hooks (see :mod:`repro.service.faults`); read per request,
    #: so a test may arm a running server.
    faults: FaultInjector | None = None

    def __init__(
        self,
        address: tuple[str, int],
        ops: dict[str, Callable[[dict], dict]],
        *,
        capacity: int | None = None,
        retry_after: float = DEFAULT_RETRY_AFTER,
        clock: Callable[[], float] = monotonic_clock,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ServiceError(f"capacity must be >= 1, got {capacity}")
        if retry_after <= 0:
            raise ServiceError(f"retry_after must be > 0, got {retry_after}")
        self.ops = ops
        #: Max concurrently dispatched work requests (``None`` = unbounded).
        self.capacity = capacity
        #: Back-off hint (seconds) carried by every shed reply.
        self.retry_after = float(retry_after)
        #: Clock of the dispatch timings handed to :meth:`finalize_reply`.
        self.clock = clock
        #: Work requests rejected by admission since startup.
        self.shed = 0
        self._stopping = False
        self._started = time.monotonic()
        # Handler threads are daemons (an idle client connection must
        # never pin the process), so draining is explicit: dispatched
        # requests are counted and a stopping server waits for their
        # replies to go out before tearing the role down.
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._drained = threading.Event()
        self._drained.set()
        # socketserver only owns the listening socket; accepted
        # connections are tracked so kill_connections() can sever them
        # the way a crashed daemon would.
        self._conns: set[socket.socket] = set()
        self._conns_lock = threading.Lock()
        super().__init__(address, _Connection)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def dispatch(self, op: str | None, payload: dict) -> dict:
        """Answer one admitted request frame; never raises."""
        try:
            if op == "shutdown":
                # Flip the admission gate first: requests racing the
                # drain are shed with a structured reply instead of
                # being half served against a closing role.
                self.begin_shutdown()
                log.info(
                    "%s shutdown requested; draining in-flight work", self.role
                )
                return {"ok": True, "op": "shutdown", "role": self.role}
            handler = self.ops.get(op)
            if handler is None:
                raise ServiceError(
                    f"unknown op {payload.get('op')!r}; supported: "
                    + ", ".join([*self.ops, "shutdown"])
                )
            return handler(payload)
        except ServiceOverloaded as exc:
            retry_after = (
                exc.retry_after if exc.retry_after is not None
                else DEFAULT_RETRY_AFTER
            )
            return overloaded_reply(str(exc), retry_after=retry_after)
        except Exception as exc:  # a bug must not kill the server
            return error_reply(str(exc), error_type=type(exc).__name__)

    def reply(self, op: str, **fields) -> dict:
        """A successful reply to ``op`` naming this role and version."""
        return {
            "ok": True, "op": op, "role": self.role, "version": __version__,
            **fields,
        }

    def finalize_reply(self, payload: dict, reply: dict, duration_s: float) -> None:
        """Role hook run on every work reply before it is sent."""

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def try_begin_request(self, op: str | None = None) -> bool:
        """Admit one request, or shed it (``False``) without blocking."""
        with self._inflight_lock:
            if op not in CONTROL_OPS and (
                self._stopping
                or (self.capacity is not None and self._inflight >= self.capacity)
            ):
                self.shed += 1
                return False
            self._inflight += 1
            self._drained.clear()
            return True

    def _end_request(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1
            if self._inflight == 0:
                self._drained.set()

    def shed_reply(self) -> dict:
        """The ``overloaded`` reply to a request admission refused."""
        reason = (
            "draining for shutdown" if self.stopping
            else f"at capacity ({self.capacity} requests in flight)"
        )
        return overloaded_reply(
            f"{self.shed_label} {reason}", retry_after=self.retry_after
        )

    def begin_shutdown(self) -> None:
        """Stop admitting work; already-dispatched requests drain."""
        with self._inflight_lock:
            self._stopping = True

    def wait_for_inflight(self, timeout: float | None = None) -> bool:
        """Block until every dispatched request has sent its reply.

        Called between ``shutdown()`` and teardown so a ``shutdown``
        from one client cannot discard another client's mid-evaluation
        batch. Idle connections don't count — only dispatched work does.
        """
        return self._drained.wait(timeout)

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Dispatched requests that have not sent their reply yet."""
        with self._inflight_lock:
            return self._inflight

    @property
    def stopping(self) -> bool:
        with self._inflight_lock:
            return self._stopping

    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self._started

    @property
    def endpoint(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` ephemerals)."""
        host, port = self.server_address[:2]
        return host, port

    def write_ready_file(self, path: str | os.PathLike) -> None:
        """Atomically publish the bound endpoint for scripts to discover."""
        publish_ready_file(path, *self.endpoint)

    def start_thread(self) -> threading.Thread:
        """Serve on a daemon thread; the caller owns the lifecycle::

            thread = server.start_thread()
            ... ServiceClient(*server.endpoint) ...
            server.shutdown(); server.server_close(); thread.join()
        """
        # A tight poll interval keeps shutdown() latency out of embedded
        # timings (the default 0.5 s would dominate short benchmarks).
        thread = threading.Thread(
            target=lambda: self.serve_forever(poll_interval=0.02), daemon=True
        )
        thread.start()
        return thread

    def get_request(self):
        request, client_address = super().get_request()
        with self._conns_lock:
            self._conns.add(request)
        return request, client_address

    def close_request(self, request) -> None:
        with self._conns_lock:
            self._conns.discard(request)
        super().close_request(request)

    def kill_connections(self) -> None:
        """Sever every accepted connection hard, like a crashed daemon."""
        with self._conns_lock:
            conns = list(self._conns)
            self._conns.clear()
        for conn in conns:
            with contextlib.suppress(OSError):
                conn.shutdown(socket.SHUT_RDWR)
            with contextlib.suppress(OSError):
                conn.close()
