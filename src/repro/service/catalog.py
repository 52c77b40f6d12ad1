"""Worker catalog: the orchestrator's registry of evaluation daemons.

A :class:`WorkerCatalog` tracks every worker the fleet knows about —
endpoint, orchestrator-side in-flight depth, breaker state and failure
history — behind one lock, so the router ranks a consistent snapshot
while request handler threads update the counters concurrently.

Liveness is observational, not configured, and runs through a
per-worker **circuit breaker** rather than a binary evict/revive bit:

* ``closed`` — the worker is in the routing rotation. A streak of
  ``max_consecutive_failures`` failed exchanges *trips* the breaker.
* ``open`` — no traffic routes to the worker for a cooldown period.
  The cooldown escalates (doubling up to a cap) on every consecutive
  trip, so a worker that keeps failing its probes backs further off.
* ``half_open`` — the cooldown elapsed; the worker re-enters the
  candidate list for exactly **one** trial request at a time. A
  successful trial closes the breaker (on probation); a failed trial
  re-opens it with an escalated cooldown.

Closing from ``open``/``half_open`` starts a *probation* window: until
``max_consecutive_failures`` consecutive successes land, a **single**
failure re-trips the breaker immediately. That is what stops a flapping
worker (fail, serve, fail, serve …) from absorbing a full failure
streak of real requests on every flap — under plain evict/revive it
gets ``max_consecutive_failures`` victims per recovery; under
probation it gets one.

Workers get stable names (``w0``, ``w1``, …) at registration. The
rendezvous-hash routing keys on those names rather than on endpoints,
so a worker that the supervisor respawns on a new ephemeral port keeps
its shard: re-``register``-ing a known name on a new endpoint updates
the entry in place, preserving its traffic counters.
"""

from __future__ import annotations

import dataclasses
import threading
import time

from repro.exceptions import ServiceError

#: Requests (or pings) a worker may fail back-to-back before its
#: breaker trips (and, during probation, successes needed to clear it).
DEFAULT_MAX_CONSECUTIVE_FAILURES = 3

#: Base cooldown of a freshly tripped breaker (seconds).
DEFAULT_BREAKER_COOLDOWN_S = 5.0

#: Cooldown multiplier applied per consecutive trip.
DEFAULT_BREAKER_BACKOFF = 2.0

#: Ceiling on the escalated cooldown (seconds).
DEFAULT_BREAKER_MAX_COOLDOWN_S = 60.0

#: Breaker states.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


@dataclasses.dataclass
class WorkerInfo:
    """One worker's catalog entry (mutated only under the catalog lock)."""

    name: str
    host: str
    port: int
    #: Requests the orchestrator currently has outstanding to this worker.
    in_flight: int = 0
    #: Requests (including per-shard sub-batches) forwarded to this worker.
    routed: int = 0
    #: Requests this worker failed that moved on to another candidate.
    failovers: int = 0
    #: Current failure streak (reset by any success).
    consecutive_failures: int = 0
    #: Times this worker's breaker tripped (left the live set).
    evictions: int = 0
    #: Breaker state: ``closed``, ``open`` or ``half_open``.
    breaker_state: str = BREAKER_CLOSED
    #: Monotonic deadline after which an open breaker may probe.
    cooldown_until: float = 0.0
    #: Consecutive trips without a completed probation (escalates cooldown).
    open_streak: int = 0
    #: Successes still needed before the breaker fully settles; while
    #: positive, a single failure re-trips immediately.
    probation: int = 0
    #: A half-open trial request is currently outstanding.
    trial_in_flight: bool = False
    #: Times the breaker transitioned open → half_open (probe windows).
    half_open_transitions: int = 0

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def live(self) -> bool:
        """In the routing rotation: every breaker state but ``open``."""
        return self.breaker_state != BREAKER_OPEN

    def stats(self) -> dict:
        """The per-worker row of the orchestrator's ``stats`` reply."""
        return {
            "name": self.name,
            "endpoint": self.endpoint,
            "live": self.live,
            "in_flight": self.in_flight,
            "routed": self.routed,
            "failovers": self.failovers,
            "consecutive_failures": self.consecutive_failures,
            "evictions": self.evictions,
            "breaker": {
                "state": self.breaker_state,
                "open_streak": self.open_streak,
                "probation": self.probation,
                "trial_in_flight": self.trial_in_flight,
                "half_open_transitions": self.half_open_transitions,
            },
        }


class WorkerCatalog:
    """Thread-safe registry of fleet workers with breaker-based liveness."""

    def __init__(
        self,
        *,
        max_consecutive_failures: int = DEFAULT_MAX_CONSECUTIVE_FAILURES,
        breaker_cooldown_s: float = DEFAULT_BREAKER_COOLDOWN_S,
        breaker_backoff: float = DEFAULT_BREAKER_BACKOFF,
        breaker_max_cooldown_s: float = DEFAULT_BREAKER_MAX_COOLDOWN_S,
        clock=time.monotonic,
    ) -> None:
        if max_consecutive_failures < 1:
            raise ServiceError(
                f"max_consecutive_failures must be >= 1, "
                f"got {max_consecutive_failures}"
            )
        if breaker_cooldown_s < 0:
            raise ServiceError(
                f"breaker_cooldown_s must be >= 0, got {breaker_cooldown_s}"
            )
        if breaker_backoff < 1.0:
            raise ServiceError(
                f"breaker_backoff must be >= 1, got {breaker_backoff}"
            )
        self.max_consecutive_failures = max_consecutive_failures
        self.breaker_cooldown_s = float(breaker_cooldown_s)
        self.breaker_backoff = float(breaker_backoff)
        self.breaker_max_cooldown_s = float(breaker_max_cooldown_s)
        self.clock = clock
        self._lock = threading.Lock()
        self._workers: dict[str, WorkerInfo] = {}
        self._seq = 0

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def register(
        self,
        host: str,
        port: int,
        *,
        name: str | None = None,
    ) -> WorkerInfo:
        """Add a worker; auto-names it ``w<k>`` when ``name`` is omitted.

        Endpoints are unique across *distinct* workers: registering an
        endpoint already owned by another name raises (two catalog
        entries proxying one daemon would double-count its shard and its
        failures). Re-registering a **known name** on a *new* endpoint
        is the supervisor's re-announcement of a respawned process: the
        entry is updated in place — traffic counters (``routed``,
        ``failovers``, ``evictions``) survive, the breaker resets to
        closed and the failure streak clears, because the old process's
        sins don't transfer to its replacement. Re-registering a known
        name on its *current* endpoint still raises: that is a true
        duplicate, not a respawn.
        """
        with self._lock:
            if name is None:
                while f"w{self._seq}" in self._workers:
                    self._seq += 1
                name = f"w{self._seq}"
                self._seq += 1
            existing = self._workers.get(name)
            if existing is not None and (existing.host, existing.port) == (
                host,
                port,
            ):
                raise ServiceError(f"worker {name!r} is already registered")
            for other in self._workers.values():
                if other is existing:
                    continue
                if (other.host, other.port) == (host, port):
                    raise ServiceError(
                        f"endpoint {host}:{port} is already registered "
                        f"as worker {other.name!r}"
                    )
            if existing is not None:
                existing.host = host
                existing.port = port
                self._reset_breaker(existing)
                return existing
            worker = WorkerInfo(name=name, host=host, port=port)
            self._workers[name] = worker
            return worker

    def reannounce(self, name: str, host: str, port: int) -> WorkerInfo:
        """The supervisor's announcement of a respawned worker process.

        Updates the endpoint (which may be unchanged — respawns prefer
        the registered port so affinity keys flow straight back) and
        arms the breaker for an **immediate half-open probe**: state
        ``open`` with an elapsed cooldown, so the next candidate
        snapshot promotes it to half-open and exactly one trial request
        decides whether the replacement process actually serves. A
        fresh process gets a fast probe, not blind trust.
        """
        with self._lock:
            try:
                worker = self._workers[name]
            except KeyError:
                raise ServiceError(f"unknown worker {name!r}") from None
            for other in self._workers.values():
                if other is not worker and (other.host, other.port) == (host, port):
                    raise ServiceError(
                        f"endpoint {host}:{port} is already registered "
                        f"as worker {other.name!r}"
                    )
            worker.host = host
            worker.port = port
            worker.consecutive_failures = 0
            worker.breaker_state = BREAKER_OPEN
            worker.trial_in_flight = False
            worker.probation = 0
            worker.cooldown_until = self.clock()
            return worker

    def remove(self, name: str) -> WorkerInfo:
        """Forget a worker entirely (a tripped one stays, removed ones don't)."""
        with self._lock:
            try:
                return self._workers.pop(name)
            except KeyError:
                raise ServiceError(f"unknown worker {name!r}") from None

    def get(self, name: str) -> WorkerInfo:
        with self._lock:
            try:
                return self._workers[name]
            except KeyError:
                raise ServiceError(f"unknown worker {name!r}") from None

    def workers(self) -> list[WorkerInfo]:
        """Every registered worker, in registration order (live or not)."""
        with self._lock:
            return list(self._workers.values())

    def live_workers(self) -> list[WorkerInfo]:
        """The routing candidates, in registration order.

        Closed breakers are always candidates. Open breakers whose
        cooldown elapsed transition to half-open here (the candidate
        list is the only consumer that needs the transition to be
        prompt). Half-open breakers are candidates **only** while no
        trial request is outstanding — one probe at a time.
        """
        now = self.clock()
        with self._lock:
            candidates = []
            for w in self._workers.values():
                if w.breaker_state == BREAKER_OPEN and now >= w.cooldown_until:
                    w.breaker_state = BREAKER_HALF_OPEN
                    w.trial_in_flight = False
                    w.half_open_transitions += 1
                if w.breaker_state == BREAKER_CLOSED:
                    candidates.append(w)
                elif w.breaker_state == BREAKER_HALF_OPEN and not w.trial_in_flight:
                    candidates.append(w)
            return candidates

    # ------------------------------------------------------------------
    # Traffic accounting
    # ------------------------------------------------------------------
    def begin(self, name: str) -> None:
        """One exchange dispatched to ``name`` (counts toward queue depth)."""
        with self._lock:
            worker = self._workers.get(name)
            if worker is not None:
                worker.in_flight += 1
                if worker.breaker_state == BREAKER_HALF_OPEN:
                    worker.trial_in_flight = True

    def note_routed(self, name: str) -> None:
        """Count one *work* request forwarded to ``name``.

        Separate from :meth:`begin` so liveness pings and stats fan-outs
        keep the ``routed`` column a pure traffic statistic.
        """
        with self._lock:
            worker = self._workers.get(name)
            if worker is not None:
                worker.routed += 1

    def end(self, name: str) -> None:
        with self._lock:
            worker = self._workers.get(name)
            if worker is not None:
                worker.in_flight -= 1

    def record_success(self, name: str) -> None:
        """A successful exchange clears the streak and closes the breaker.

        Closing from ``open``/``half_open`` starts probation: the next
        ``max_consecutive_failures`` exchanges must all succeed, and any
        single failure in that window re-trips immediately.
        """
        with self._lock:
            worker = self._workers.get(name)
            if worker is None:
                return
            worker.consecutive_failures = 0
            if worker.breaker_state != BREAKER_CLOSED:
                worker.breaker_state = BREAKER_CLOSED
                worker.trial_in_flight = False
                worker.probation = self.max_consecutive_failures
            elif worker.probation > 0:
                worker.probation -= 1
                if worker.probation == 0:
                    worker.open_streak = 0

    def record_failure(self, name: str, *, failover: bool = False) -> bool:
        """Count one failed exchange; returns ``True`` if this tripped it.

        ``failover=True`` marks the failure as one whose request moved on
        to another worker (the orchestrator's forwarding path); liveness
        pings pass ``False`` so the failover counter stays a traffic
        statistic, not a health one.

        Trip conditions: a closed breaker trips when the streak reaches
        ``max_consecutive_failures``, or on the *first* failure while on
        probation; a half-open breaker trips on its trial's failure; an
        open breaker just keeps counting.
        """
        with self._lock:
            worker = self._workers.get(name)
            if worker is None:
                return False
            if failover:
                worker.failovers += 1
            worker.consecutive_failures += 1
            if worker.breaker_state == BREAKER_HALF_OPEN:
                self._trip(worker)
                return True
            if worker.breaker_state == BREAKER_CLOSED and (
                worker.probation > 0
                or worker.consecutive_failures >= self.max_consecutive_failures
            ):
                self._trip(worker)
                return True
            return False

    # ------------------------------------------------------------------
    # Breaker internals (call with the lock held)
    # ------------------------------------------------------------------
    def _trip(self, worker: WorkerInfo) -> None:
        worker.breaker_state = BREAKER_OPEN
        worker.trial_in_flight = False
        worker.probation = 0
        worker.evictions += 1
        worker.open_streak += 1
        cooldown = min(
            self.breaker_max_cooldown_s,
            self.breaker_cooldown_s
            * self.breaker_backoff ** (worker.open_streak - 1),
        )
        worker.cooldown_until = self.clock() + cooldown

    def _reset_breaker(self, worker: WorkerInfo) -> None:
        worker.breaker_state = BREAKER_CLOSED
        worker.consecutive_failures = 0
        worker.cooldown_until = 0.0
        worker.open_streak = 0
        worker.probation = 0
        worker.trial_in_flight = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._workers)

    def stats(self) -> list[dict]:
        """Per-worker stat rows, registration order (tripped ones included)."""
        with self._lock:
            return [w.stats() for w in self._workers.values()]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            live = sum(1 for w in self._workers.values() if w.live)
            return (
                f"WorkerCatalog({len(self._workers)} workers, {live} live, "
                f"max_consecutive_failures={self.max_consecutive_failures})"
            )
