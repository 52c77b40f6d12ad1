"""Deterministic fault injection for the service stack.

A :class:`FaultInjector` is a thread-safe budget of faults that the
server, the engine and the disk cache consult at well-defined hook
points. Each fault *kind* is armed with a count; every firing decrements
the budget, so a chaos test (or a ``repro.cli serve --faults`` run) gets
an exact, reproducible number of failures — no randomness, no timing
races deciding whether a recovery path was exercised.

Supported kinds and their hook points:

* ``drop`` — the server handler closes the connection *after* doing the
  work but *instead of* sending the reply: the client sees EOF
  (:class:`~repro.exceptions.ServiceUnavailable`) and its retry must be
  absorbed by the coalescing queue / caches, proving idempotency;
* ``delay`` — the server handler sleeps ``delay_s`` before replying:
  clients with armed request deadlines must raise
  :class:`~repro.exceptions.ServiceTimeout` instead of hanging;
* ``crash`` — the engine kills one of its pool workers (a real
  ``os._exit``, the moral equivalent of the OOM killer) right before an
  evaluator pass, forcing the ``BrokenProcessPool`` recovery path;
* ``torn_tail`` — the tier-2 disk cache's JSONL file loses the second
  half of its final record (exactly what a kill mid-``write`` leaves
  behind), which the next load must drop and repair;
* ``hang`` — the server handler stalls ``hang_s`` seconds *before*
  doing any work, the way a wedged worker stalls a whole sub-batch:
  nothing rescues the request but a deadline, so clients (and the
  orchestrator's forwarding clients) must raise
  :class:`~repro.exceptions.ServiceTimeout`;
* ``flap`` — the server handler alternates between severing the
  connection pre-work and serving normally (``flap:2`` fails requests
  1 and 3, serves 2 and 4), the pathology circuit breakers exist for:
  a plain evict/revive catalog would feed a flapping worker one real
  request per recovery.

Injectors come from three places: constructed directly in tests, parsed
from a spec string (``"drop:2,crash:1,delay:1:0.5"``), or read from the
``REPRO_FAULTS`` environment variable by ``repro.cli serve``.
"""

from __future__ import annotations

import os
import threading
import time

from repro.exceptions import ServiceError

#: Every fault kind an injector understands.
FAULT_KINDS = ("drop", "delay", "crash", "torn_tail", "hang", "flap")

#: Environment variable ``repro.cli serve`` reads a fault spec from.
FAULTS_ENV = "REPRO_FAULTS"

#: Default sleep of a ``delay`` fault (seconds).
DEFAULT_DELAY_S = 0.25

#: Default stall of a ``hang`` fault (seconds) — long enough that any
#: armed client deadline fires first.
DEFAULT_HANG_S = 30.0

#: Spec clauses that accept a trailing ``:SECONDS`` field.
_TIMED_KINDS = ("delay", "hang")


def _exit_worker() -> None:  # pragma: no cover - runs in a worker process
    """Die the way an OOM-killed worker dies: abruptly, no cleanup."""
    os._exit(11)


class FaultInjector:
    """Thread-safe, counted fault budget shared across the service stack.

    ``plan`` maps fault kinds to how many times each fires; kinds not
    named never fire. ``fired`` counts what actually happened, so tests
    and the ``stats`` op can assert that every armed fault was consumed
    (a chaos run whose faults never fired proves nothing).
    """

    def __init__(
        self,
        plan: dict[str, int] | None = None,
        *,
        delay_s: float = DEFAULT_DELAY_S,
        hang_s: float = DEFAULT_HANG_S,
    ) -> None:
        self._lock = threading.Lock()
        self._armed: dict[str, int] = {}
        self.fired: dict[str, int] = dict.fromkeys(FAULT_KINDS, 0)
        self.delay_s = float(delay_s)
        self.hang_s = float(hang_s)
        #: ``flap`` alternator: the next armed flap fires only when True.
        self._flap_fail_next = True
        for kind, count in (plan or {}).items():
            self.arm(kind, count)

    # ------------------------------------------------------------------
    # Arming and consuming
    # ------------------------------------------------------------------
    def arm(self, kind: str, count: int = 1) -> None:
        """Add ``count`` firings of ``kind`` to the budget."""
        if kind not in FAULT_KINDS:
            raise ServiceError(
                f"unknown fault kind {kind!r}; "
                f"supported: {', '.join(FAULT_KINDS)}"
            )
        if count < 0:
            raise ServiceError(f"fault count must be >= 0, got {count}")
        with self._lock:
            self._armed[kind] = self._armed.get(kind, 0) + count

    def take(self, kind: str) -> bool:
        """Consume one firing of ``kind`` if armed; report whether it fired."""
        with self._lock:
            if self._armed.get(kind, 0) <= 0:
                return False
            self._armed[kind] -= 1
            self.fired[kind] += 1
            return True

    def armed(self, kind: str) -> int:
        """Firings of ``kind`` still pending."""
        with self._lock:
            return self._armed.get(kind, 0)

    # ------------------------------------------------------------------
    # Hook-point helpers
    # ------------------------------------------------------------------
    def sleep_if_delayed(self) -> bool:
        """``delay`` hook: sleep before a reply goes out (server handler)."""
        if not self.take("delay"):
            return False
        time.sleep(self.delay_s)
        return True

    def hang_if_armed(self) -> bool:
        """``hang`` hook: stall *before* the work starts (server handler).

        The admission slot stays held for the whole stall, exactly like a
        wedged worker at capacity; the request still completes once the
        stall ends, by which time an armed client deadline has fired.
        """
        if not self.take("hang"):
            return False
        time.sleep(self.hang_s)
        return True

    def flap_now(self) -> bool:
        """``flap`` hook: should this work request be severed pre-work?

        Alternates fail/serve while the ``flap`` budget lasts, consuming
        one firing per severed request — the canonical flapping worker
        that a plain evict/revive liveness model keeps feeding traffic.
        """
        with self._lock:
            if self._armed.get("flap", 0) <= 0:
                return False
            if not self._flap_fail_next:
                self._flap_fail_next = True
                return False
            self._armed["flap"] -= 1
            self.fired["flap"] += 1
            self._flap_fail_next = False
            return True

    def kill_pool_worker(self, pool) -> None:
        """``crash`` hook body: abruptly kill one worker of ``pool``.

        Submits a suicide task and waits for the executor to notice the
        abrupt death (every wait on a broken pool raises
        ``BrokenProcessPool``) — afterwards the pool is broken for every
        caller, exactly like a mid-batch OOM kill.
        """
        try:
            pool.submit(_exit_worker).result(timeout=60)
        except Exception:
            pass  # BrokenProcessPool here IS the success condition

    def tear_cache_tail(self, path: str | os.PathLike) -> bool:
        """``torn_tail`` hook body: leave a half-written final record.

        Truncates the file mid-way through its last line — byte-for-byte
        what a crash during an append leaves on disk. The crash-safe
        loader must drop exactly that record and repair on the next
        write. Returns whether anything was torn (an empty or missing
        file has no tail to tear).
        """
        try:
            size = os.path.getsize(path)
        except OSError:
            return False
        if size == 0:
            return False
        with open(path, "rb") as fh:
            raw = fh.read()
        body = raw.rstrip(b"\n")
        last_start = body.rfind(b"\n") + 1
        last_line = body[last_start:]
        if not last_line:
            return False
        # Keep the first half of the final record, drop its newline.
        with open(path, "r+b") as fh:
            fh.truncate(last_start + max(1, len(last_line) // 2))
            fh.flush()
            os.fsync(fh.fileno())
        return True

    # ------------------------------------------------------------------
    # Introspection and construction
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Armed and fired counts (the ``stats`` op's ``faults`` block)."""
        with self._lock:
            return {
                "armed": {k: v for k, v in self._armed.items() if v > 0},
                "fired": dict(self.fired),
            }

    @classmethod
    def from_spec(cls, spec: str) -> "FaultInjector":
        """Parse ``"kind:count[,kind:count[:seconds]...]"`` into an injector.

        Examples: ``"drop:2"``, ``"crash:1,torn_tail:1"``,
        ``"delay:3:0.5"`` (three delayed replies of 0.5 s each),
        ``"hang:1:5"`` (one 5 s pre-work stall), ``"flap:2"``.

        Everything is validated here, at parse time: counts must be
        positive integers and ``delay``/``hang`` seconds non-negative
        numbers, with errors naming the offending clause — a bad value
        must fail the ``serve --faults`` invocation, not surface minutes
        later when the fault finally fires.
        """
        injector = cls()
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            fields = part.split(":")
            if len(fields) not in (2, 3):
                raise ServiceError(
                    f"invalid fault spec clause {part!r}; expected "
                    "KIND:COUNT or KIND:COUNT:SECONDS"
                )
            kind = fields[0].strip()
            try:
                count = int(fields[1])
            except ValueError:
                raise ServiceError(
                    f"invalid fault count in clause {part!r}: "
                    f"{fields[1]!r} is not an integer"
                ) from None
            if count < 1:
                raise ServiceError(
                    f"invalid fault count in clause {part!r}: "
                    f"count must be a positive integer, got {count}"
                )
            if len(fields) == 3:
                if kind not in _TIMED_KINDS:
                    raise ServiceError(
                        f"only {' and '.join(repr(k) for k in _TIMED_KINDS)} "
                        f"take a third SECONDS field, got {part!r}"
                    )
                try:
                    seconds = float(fields[2])
                except ValueError:
                    raise ServiceError(
                        f"invalid seconds in clause {part!r}: "
                        f"{fields[2]!r} is not a number"
                    ) from None
                if not (seconds >= 0.0):  # rejects negatives and NaN
                    raise ServiceError(
                        f"invalid seconds in clause {part!r}: "
                        f"must be non-negative, got {fields[2]}"
                    )
                if kind == "delay":
                    injector.delay_s = seconds
                else:
                    injector.hang_s = seconds
            injector.arm(kind, count)
        return injector

    @classmethod
    def from_env(cls, env: str = FAULTS_ENV) -> "FaultInjector | None":
        """Injector from the environment, or ``None`` when unset/empty."""
        spec = os.environ.get(env, "").strip()
        if not spec:
            return None
        return cls.from_spec(spec)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultInjector(armed={self._armed}, fired={self.fired})"
