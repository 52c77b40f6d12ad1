"""Fleet lifecycle helpers: local in-process fleets and spawned workers.

Two ways to stand up an orchestrator + N workers:

* :func:`local_fleet` — everything in this process (N worker servers on
  background threads, each with its own :class:`EvaluationEngine`, plus
  the orchestrator). The embedding entry point for the tests and the
  ``service.selfheal`` benchmark: deterministic, no subprocesses, and the
  returned handle can *kill* a worker abruptly — listening socket and
  established connections torn down mid-request — to exercise failover
  exactly like a crashed daemon would;
* :func:`spawn_worker` / :func:`wait_for_ready_file` — real
  ``repro.cli serve`` subprocesses with the atomic ready-file handshake,
  used by ``repro.cli fleet`` and the CI fleet-smoke job.

Ownership is explicit everywhere: whoever spawned a worker stops it;
an orchestrator pointed at externally managed daemons never does.

On top of both sits :class:`FleetSupervisor`: the detect-and-repair
loop that turns a fleet's one-shot failover into a steady-state
property. It health-checks watched workers, respawns dead ones on
their registered endpoints (bounded restart budget, exponential
backoff between attempts) and re-announces them to the catalog so
their rendezvous-hash shards flow back after a single half-open
probe succeeds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.exceptions import ServiceError, ServiceTimeout
from repro.service.catalog import WorkerCatalog
from repro.service.client import RetryPolicy, ServiceClient
from repro.service.faults import FaultInjector
from repro.service.orchestrator import (
    OrchestratorServer,
    serve_orchestrator_in_thread,
)
from repro.service.protocol import DEFAULT_HOST
from repro.service.routing import RoutingStrategy
from repro.service.server import ServiceServer
from repro.service.workers import EvaluationEngine
from repro.telemetry import FlightRecorder, get_logger

log = get_logger("service.fleet")

#: Default restart budget per supervised worker.
DEFAULT_MAX_RESTARTS = 3

#: Default supervisor health-check cadence (seconds).
DEFAULT_CHECK_INTERVAL_S = 0.5

#: Default base backoff before a respawn attempt (seconds).
DEFAULT_RESTART_BACKOFF_S = 0.25

#: Default backoff multiplier per consecutive restart of one worker.
DEFAULT_RESTART_BACKOFF_MULTIPLIER = 2.0

#: Ceiling on the per-worker restart backoff (seconds).
DEFAULT_RESTART_BACKOFF_MAX_S = 5.0


@dataclasses.dataclass
class _WatchedWorker:
    """Supervisor-side record of one worker under watch."""

    name: str
    is_alive: "object"  # Callable[[], bool]
    respawn: "object"  # Callable[[], tuple[str, int]]
    restarts: int = 0
    failed_respawns: int = 0
    abandoned: bool = False
    #: Monotonic instant before which no respawn attempt may run.
    next_attempt_at: float = 0.0

    def stats(self) -> dict:
        return {
            "name": self.name,
            "restarts": self.restarts,
            "failed_respawns": self.failed_respawns,
            "abandoned": self.abandoned,
        }


class FleetSupervisor:
    """Detect-and-repair loop over a fleet's worker processes.

    Each watched worker brings two callables: ``is_alive`` (a cheap
    process-level liveness check — *not* a network probe; the breaker
    owns request-level health) and ``respawn`` (rebuild the dead worker,
    returning the ``(host, port)`` it now serves on — ideally its
    registered endpoint, so affinity keys flow straight back).

    On every :meth:`check_once` pass a dead worker is respawned if its
    backoff window elapsed and its restart budget (``max_restarts``)
    isn't exhausted; the backoff escalates per consecutive restart of
    the same worker. After a successful respawn the worker is
    **re-announced** to the catalog (:meth:`WorkerCatalog.reannounce`),
    which arms its breaker for an immediate half-open probe — one trial
    request decides whether the replacement actually serves, and a
    success closes the breaker and returns the worker's shard to it.

    ``start()`` runs the loop on a daemon thread; tests drive
    :meth:`check_once` directly for determinism.
    """

    def __init__(
        self,
        catalog: WorkerCatalog,
        *,
        check_interval: float = DEFAULT_CHECK_INTERVAL_S,
        max_restarts: int = DEFAULT_MAX_RESTARTS,
        backoff_base: float = DEFAULT_RESTART_BACKOFF_S,
        backoff_multiplier: float = DEFAULT_RESTART_BACKOFF_MULTIPLIER,
        backoff_max: float = DEFAULT_RESTART_BACKOFF_MAX_S,
        clock=time.monotonic,
    ) -> None:
        if check_interval <= 0:
            raise ServiceError(
                f"check_interval must be > 0, got {check_interval}"
            )
        if max_restarts < 0:
            raise ServiceError(
                f"max_restarts must be >= 0, got {max_restarts}"
            )
        self.catalog = catalog
        self.check_interval = check_interval
        self.max_restarts = max_restarts
        self.backoff_base = backoff_base
        self.backoff_multiplier = backoff_multiplier
        self.backoff_max = backoff_max
        self.clock = clock
        self._lock = threading.Lock()
        self._watched: dict[str, _WatchedWorker] = {}
        self._respawns = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def watch(self, name: str, *, is_alive, respawn) -> None:
        """Put ``name`` under supervision (replaces any prior watch)."""
        with self._lock:
            self._watched[name] = _WatchedWorker(
                name=name, is_alive=is_alive, respawn=respawn
            )

    def _backoff(self, restarts: int) -> float:
        """Backoff before the ``restarts``-th consecutive respawn."""
        return min(
            self.backoff_max,
            self.backoff_base * self.backoff_multiplier ** max(0, restarts - 1),
        )

    def check_once(self) -> list[str]:
        """One supervision pass; returns the workers respawned by it."""
        with self._lock:
            watched = list(self._watched.values())
        respawned: list[str] = []
        for worker in watched:
            if worker.abandoned:
                continue
            try:
                alive = bool(worker.is_alive())
            except Exception:
                alive = False
            if alive:
                continue
            now = self.clock()
            if now < worker.next_attempt_at:
                continue
            if worker.restarts >= self.max_restarts:
                worker.abandoned = True
                log.error(
                    "worker %s exhausted its restart budget (%d); abandoning",
                    worker.name, self.max_restarts,
                )
                continue
            worker.restarts += 1
            worker.next_attempt_at = now + self._backoff(worker.restarts)
            try:
                host, port = worker.respawn()
            except Exception as exc:
                worker.failed_respawns += 1
                log.warning(
                    "respawn of worker %s failed (%s: %s); retrying after "
                    "backoff", worker.name, type(exc).__name__, exc,
                )
                continue
            with self._lock:
                self._respawns += 1
            try:
                self.catalog.reannounce(worker.name, host, port)
            except ServiceError as exc:
                log.warning(
                    "re-announce of worker %s failed: %s", worker.name, exc
                )
            log.info(
                "respawned worker %s on %s:%d (restart %d/%d)",
                worker.name, host, port, worker.restarts, self.max_restarts,
            )
            respawned.append(worker.name)
        return respawned

    def start(self) -> None:
        """Run the supervision loop on a daemon thread."""
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:  # pragma: no cover - timing-dependent
        while not self._stop.wait(self.check_interval):
            try:
                self.check_once()
            except Exception:
                log.exception("supervisor pass failed")

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._thread = None

    @property
    def respawns(self) -> int:
        with self._lock:
            return self._respawns

    def stats(self) -> dict:
        """The ``supervisor`` block of the orchestrator's ``stats`` reply."""
        with self._lock:
            return {
                "respawns": self._respawns,
                "max_restarts": self.max_restarts,
                "check_interval_s": self.check_interval,
                "running": self._thread is not None,
                "workers": [w.stats() for w in self._watched.values()],
            }


@dataclasses.dataclass
class FleetWorker:
    """One in-process worker: engine + server + serving thread."""

    name: str
    engine: EvaluationEngine
    server: ServiceServer
    thread: threading.Thread

    @property
    def endpoint(self) -> tuple[str, int]:
        return self.server.endpoint

    def stop(self, *, kill: bool = False) -> None:
        """Stop serving, then reclaim the engine and the recorder.

        Dispatched requests drain first, unless ``kill`` severs every
        established connection the way a crashed daemon's would.
        """
        self.server.shutdown()
        self.server.server_close()
        if kill:
            self.server.kill_connections()
        else:
            self.server.wait_for_inflight(timeout=10.0)
        self.engine.close()
        if self.server.recorder is not None:
            self.server.recorder.close()
        self.thread.join(timeout=5.0)


def _start_worker(
    name: str,
    config: dict,
    *,
    host: str = DEFAULT_HOST,
    port: int = 0,
    faults: str | None = None,
    recorder_file: str,
) -> FleetWorker:
    """Build and serve one in-process worker from a fleet's ``config``.

    ``config`` carries the engine and server settings every worker of
    the fleet shares (``n_jobs``, ``max_entries``, ``capacity``,
    ``recorder_dir``); ``faults`` arms this worker's injector and
    ``recorder_file`` names its flight recorder under ``recorder_dir``.
    """
    recorder_dir = config["recorder_dir"]
    server_kwargs = dict(
        host=host,
        capacity=config["capacity"],
        faults=FaultInjector.from_spec(faults) if faults else None,
        recorder=(
            FlightRecorder(Path(recorder_dir) / recorder_file)
            if recorder_dir is not None
            else None
        ),
    )
    engine = EvaluationEngine(
        n_jobs=config["n_jobs"], max_entries=config["max_entries"]
    )
    try:
        server = ServiceServer(engine, port=port, **server_kwargs)
    except OSError:
        # The registered port is still held (TIME_WAIT straggler or
        # another process grabbed it): fall back to an ephemeral one —
        # reannounce() will carry the new endpoint to the catalog.
        server = ServiceServer(engine, port=0, **server_kwargs)
    return FleetWorker(name, engine, server, server.start_thread())


class LocalFleet:
    """Handle on an in-process fleet (yielded by :func:`local_fleet`)."""

    def __init__(
        self,
        catalog: WorkerCatalog,
        orchestrator: OrchestratorServer,
        orchestrator_thread: threading.Thread,
        workers: list[FleetWorker],
        *,
        worker_config: dict,
    ) -> None:
        self.catalog = catalog
        self.orchestrator = orchestrator
        self._orchestrator_thread = orchestrator_thread
        self.workers = workers
        self._stopped: set[str] = set()
        #: The ``config`` respawned workers are rebuilt with.
        self._worker_config = worker_config
        self.supervisor: FleetSupervisor | None = None

    @property
    def endpoint(self) -> tuple[str, int]:
        """The orchestrator's bound ``(host, port)`` — point clients here."""
        return self.orchestrator.endpoint

    def client(self, **kwargs) -> ServiceClient:
        host, port = self.endpoint
        return ServiceClient(host, port, **kwargs)

    def worker(self, name: str) -> FleetWorker:
        for worker in self.workers:
            if worker.name == name:
                return worker
        raise ServiceError(f"unknown fleet worker {name!r}")

    def kill_worker(self, name: str) -> None:
        """Tear a worker down *abruptly*, like a crashed daemon.

        The listening socket closes, every established connection is
        severed (in-flight requests die without a reply), and the
        engine is reclaimed. The catalog is not told: the orchestrator
        must *discover* the death through failed forwards or pings —
        that discovery path is what the failover tests exercise.
        """
        self._stop(name, kill=True)

    def stop_worker(self, name: str) -> None:
        """Graceful single-worker stop (drain, then engine teardown)."""
        self._stop(name, kill=False)

    def _stop(self, name: str, *, kill: bool) -> None:
        worker = self.worker(name)
        if name in self._stopped:
            return
        worker.stop(kill=kill)
        # Only now mark the worker stopped: a running supervisor treats
        # membership in the stopped set as "dead" and may respawn into
        # this slot at any moment after the add().
        self._stopped.add(name)

    def respawn_worker(
        self, name: str, *, faults: str | None = None
    ) -> FleetWorker:
        """Rebuild a killed worker on its registered endpoint.

        A fresh engine and server replace the dead ones inside the same
        :class:`FleetWorker` slot — same name, and the same port when
        the OS lets us rebind it (falling back to an ephemeral port
        otherwise). The fresh process carries **no** fault budget unless
        ``faults`` arms a new one: the injected faults died with the
        process they were injected into. The catalog is *not* told
        here — re-announcement is the supervisor's job, so respawn and
        breaker policy stay separable.
        """
        worker = self.worker(name)
        if name not in self._stopped:
            raise ServiceError(f"worker {name!r} is still running")
        info = self.catalog.get(name)
        fresh = _start_worker(
            name, self._worker_config, host=info.host, port=info.port,
            faults=faults, recorder_file=f"{name}.respawn.jsonl",
        )
        worker.engine, worker.server, worker.thread = (
            fresh.engine, fresh.server, fresh.thread
        )
        self._stopped.discard(name)
        return worker

    def make_supervisor(self, **kwargs) -> FleetSupervisor:
        """A :class:`FleetSupervisor` watching every in-process worker.

        Liveness is membership in the not-stopped set; respawn rebuilds
        the worker in this process via :meth:`respawn_worker`. The
        supervisor is attached to the orchestrator (its ``stats`` reply
        grows a ``supervisor`` block) and stopped by :meth:`close`; the
        caller still decides whether to ``start()`` the loop or drive
        ``check_once()`` by hand.
        """
        supervisor = FleetSupervisor(self.catalog, **kwargs)
        for worker in self.workers:
            supervisor.watch(
                worker.name,
                is_alive=lambda n=worker.name: n not in self._stopped,
                respawn=lambda n=worker.name: (
                    self.respawn_worker(n).endpoint
                ),
            )
        self.supervisor = supervisor
        self.orchestrator.supervisor = supervisor
        return supervisor

    def close(self) -> None:
        """Stop the supervisor, then the orchestrator, then the workers."""
        if self.supervisor is not None:
            self.supervisor.stop()
        self.orchestrator.shutdown()
        self.orchestrator.server_close()
        self.orchestrator.wait_for_inflight(timeout=30.0)
        self._orchestrator_thread.join(timeout=5.0)
        if self.orchestrator.recorder is not None:
            self.orchestrator.recorder.close()
        for worker in self.workers:
            self.stop_worker(worker.name)


@contextlib.contextmanager
def local_fleet(
    n_workers: int,
    *,
    strategy: str | RoutingStrategy = "fingerprint_affinity",
    max_entries: int | None = None,
    n_jobs: int = 1,
    capacity: int | None = None,
    retry: RetryPolicy | None = None,
    request_timeout: float | None = None,
    connect_timeout: float | None = 2.0,
    ping_interval: float | None = None,
    faults: dict[int, str] | None = None,
    recorder_dir: str | os.PathLike | None = None,
    breaker_cooldown_s: float | None = None,
    max_unit_attempts: int | None = None,
):
    """An orchestrator fronting ``n_workers`` in-process daemons.

    Workers get the stable catalog names ``w0`` … ``w<n-1>`` (the
    rendezvous-hash shard identities) and each owns an independent
    engine — ``max_entries`` bounds each worker's structure cache, so a
    fleet's *aggregate* cache capacity scales with its size.
    ``faults`` maps worker index → :class:`FaultInjector` spec (e.g.
    ``{1: "drop:1"}``) for failover tests. ``recorder_dir`` switches the
    flight recorders on: one ``w<k>.jsonl`` per worker plus
    ``orchestrator.jsonl``, all joinable on ``request_id`` (the trace
    tests and ``repro.cli trace`` read these back).
    """
    if n_workers < 1:
        raise ServiceError(f"n_workers must be >= 1, got {n_workers}")
    catalog_kwargs: dict = {}
    if breaker_cooldown_s is not None:
        catalog_kwargs["breaker_cooldown_s"] = breaker_cooldown_s
    catalog = WorkerCatalog(**catalog_kwargs)
    worker_config = {
        "n_jobs": n_jobs,
        "max_entries": max_entries,
        "capacity": capacity,
        "recorder_dir": recorder_dir,
    }
    workers: list[FleetWorker] = []
    fleet: LocalFleet | None = None
    try:
        for index in range(n_workers):
            worker = _start_worker(
                f"w{index}", worker_config,
                faults=(faults or {}).get(index),
                recorder_file=f"w{index}.jsonl",
            )
            host, port = worker.endpoint
            catalog.register(host, port, name=worker.name, capacity=capacity)
            workers.append(worker)
        orchestrator_kwargs: dict = {}
        if max_unit_attempts is not None:
            orchestrator_kwargs["max_unit_attempts"] = max_unit_attempts
        orchestrator, orch_thread = serve_orchestrator_in_thread(
            catalog,
            strategy=strategy,
            retry=retry,
            request_timeout=request_timeout,
            connect_timeout=connect_timeout,
            ping_interval=ping_interval,
            recorder=(
                FlightRecorder(Path(recorder_dir) / "orchestrator.jsonl")
                if recorder_dir is not None
                else None
            ),
            **orchestrator_kwargs,
        )
        fleet = LocalFleet(
            catalog, orchestrator, orch_thread, workers,
            worker_config=worker_config,
        )
        yield fleet
    finally:
        if fleet is not None:
            fleet.close()
        else:  # orchestrator never came up: reclaim the workers directly
            for worker in workers:
                worker.stop()


# ----------------------------------------------------------------------
# Subprocess workers (repro.cli fleet / CI smoke jobs)
# ----------------------------------------------------------------------
def spawn_worker(
    ready_file: str | os.PathLike,
    *,
    host: str = DEFAULT_HOST,
    port: int = 0,
    n_jobs: int = 1,
    max_entries: int | None = None,
    cache: str | os.PathLike | None = None,
    capacity: int | None = None,
    max_pool_restarts: int | None = None,
    slow_threshold: float | None = None,
    faults: str | None = None,
    recorder: str | os.PathLike | None = None,
    python: str | None = None,
    stdout=subprocess.DEVNULL,
    stderr=None,
) -> subprocess.Popen:
    """Launch one ``repro.cli serve`` daemon as a subprocess.

    The worker publishes its bound endpoint through ``ready_file``
    (atomic ``{host, port, pid}`` JSON — poll it with
    :func:`wait_for_ready_file`). ``PYTHONPATH`` is extended with this
    package's source root so the child resolves :mod:`repro` exactly as
    the parent did, wherever it was launched from.
    """
    argv = [
        python or sys.executable,
        "-m",
        "repro.cli",
        "serve",
        "--host", host,
        "--port", str(port),
        "--ready-file", str(ready_file),
        "--n-jobs", str(n_jobs),
    ]
    if max_entries is not None:
        argv += ["--max-entries", str(max_entries)]
    if cache is not None:
        argv += ["--cache", str(cache)]
    if capacity is not None:
        argv += ["--capacity", str(capacity)]
    if max_pool_restarts is not None:
        argv += ["--max-pool-restarts", str(max_pool_restarts)]
    if slow_threshold is not None:
        argv += ["--slow-threshold", str(slow_threshold)]
    if faults:
        argv += ["--faults", faults]
    if recorder is not None:
        argv += ["--recorder", str(recorder)]
    env = dict(os.environ)
    source_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        source_root if not existing
        else source_root + os.pathsep + existing
    )
    return subprocess.Popen(argv, env=env, stdout=stdout, stderr=stderr)


def wait_for_ready_file(
    path: str | os.PathLike,
    *,
    timeout: float = 30.0,
    interval: float = 0.05,
    process: subprocess.Popen | None = None,
) -> tuple[str, int]:
    """Poll for a worker's ready file; returns its ``(host, port)``.

    When ``process`` is given, a child that exits before publishing the
    file fails fast with its return code instead of burning the whole
    timeout.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process is not None and process.poll() is not None:
            raise ServiceError(
                f"worker exited with code {process.returncode} before "
                f"publishing {os.fspath(path)}"
            )
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError):
            time.sleep(interval)
            continue
        return str(payload["host"]), int(payload["port"])
    raise ServiceTimeout(
        f"ready file {os.fspath(path)} did not appear within {timeout}s"
    )
