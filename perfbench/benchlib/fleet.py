"""The ``fleet`` workload: a subprocess evaluation fleet under closed-loop load.

``python -m repro.cli fleet --n-workers 2`` runs in its own session (an
orchestrator process plus two worker daemons). Two client threads in the
benchmark process -- as many as the machine has cores -- draw from one
seeded Zipf trace of cheap deterministic ``single_communication`` tasks
and keep the fleet busy for the whole window: one sends single
``evaluate`` requests (the shape of an interactive search), the other
16-task ``batch`` requests (the shape of ``campaign run --via-service``).
"""

from __future__ import annotations

import importlib
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

from benchlib.measure import peak_rss_tree_mb

N_WORKERS = 2
SIDES = range(2, 10)
MODELS = ("overlap", "strict")
#: Zipf exponent of key popularity over the 128 distinct tasks, ranked
#: by a fixed permutation.
ZIPF_S = 1.1
POPULARITY_SEED = 0
BATCH = 16
TRACE_LEN = 400_000
REQUEST_TIMEOUT_S = 30.0
STARTUP_TIMEOUT_S = 60.0
#: The window is cut into slices of this length, each holding over a
#: hundred single requests. At the end of a slice both clients finish
#: their request in flight and wait, the fleet idle, while the benchmark
#: process times the calibration kernel.
SLICE_S = 1.0
#: Longest wait at a slice boundary: a slice plus a request timing out.
BARRIER_TIMEOUT_S = SLICE_S + REQUEST_TIMEOUT_S + 30.0


class FleetProcess:
    """One fleet deployment, started and stopped by the benchmark."""

    def __init__(self, root: str, out_dir: str, tag: str) -> None:
        self.root = root
        self.ready_file = os.path.join(out_dir, f"fleet-{os.getpid()}-{tag}.json")
        self.log_file = os.path.join(out_dir, f"fleet-{os.getpid()}-{tag}.log")
        self.proc: subprocess.Popen | None = None
        self.endpoint: tuple[str, int] | None = None

    def start(self) -> float:
        """Spawn the fleet; seconds until it answers ``ping``."""
        service = importlib.import_module("repro.service")
        if os.path.exists(self.ready_file):
            os.remove(self.ready_file)
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        t0 = time.perf_counter()
        with open(self.log_file, "wb") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "fleet",
                    "--n-workers", str(N_WORKERS),
                    "--host", "127.0.0.1", "--port", "0",
                    "--ready-file", self.ready_file,
                ],
                cwd=self.root, env=env,
                stdout=subprocess.DEVNULL, stderr=log,
                start_new_session=True,
            )
        host, port = service.wait_for_ready_file(
            self.ready_file, timeout=STARTUP_TIMEOUT_S, process=self.proc
        )
        service.wait_for_service(host, port, timeout=STARTUP_TIMEOUT_S)
        self.endpoint = (host, port)
        return time.perf_counter() - t0

    def stop(self) -> None:
        """Shut the fleet down and wait until every process of it ended."""
        if self.proc is None:
            return
        service = importlib.import_module("repro.service")
        errors = importlib.import_module("repro.exceptions")
        if self.proc.poll() is None and self.endpoint is not None:
            try:
                with service.ServiceClient(*self.endpoint, timeout=10.0) as client:
                    client.shutdown()
            except errors.ServiceError:
                pass  # already gone: the session sweep below still runs
        try:
            self.proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        # Workers of a killed orchestrator outlive it in its session.
        deadline = time.monotonic() + 10.0
        while True:
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                break
            if time.monotonic() > deadline:
                os.killpg(self.proc.pid, signal.SIGKILL)
                deadline = time.monotonic() + 10.0
            time.sleep(0.05)
        self.proc = None


class _Cursor:
    """The shared position in the trace both clients draw from."""

    def __init__(self, trace: np.ndarray) -> None:
        self._trace = trace
        self._next = 0
        self._lock = threading.Lock()

    def take(self, n: int) -> list[int]:
        with self._lock:
            i = self._next
            self._next += n
        return [int(self._trace[(i + k) % len(self._trace)]) for k in range(n)]


def _delta(before: dict, after: dict, name: str, field: str) -> float:
    return after.get(name, {}).get(field, 0) - before.get(name, {}).get(field, 0)


def _worker_units(stats: dict) -> dict[str, int]:
    units = {}
    for row in stats.get("workers", []):
        reported = row.get("reported") or {}
        units[row["name"]] = (reported.get("requests") or {}).get("units", 0)
    return units


def service_metrics(before, after, client_request_s: float, client_shed: int) -> dict:
    """Per-layer service metrics from ``metrics``/``stats`` deltas."""
    (m0, s0), (m1, s1) = before, after

    def secs(name):
        return _delta(m0, m1, name, "sum")

    def count(name):
        return _delta(m0, m1, name, "value")

    orchestrator_s = secs("repro_orchestrator_request_seconds")
    units = count("repro_engine_units_total")
    sent = count("repro_orchestrator_hedges_sent_total")
    w0, w1 = _worker_units(s0), _worker_units(s1)
    per_worker = [w1[name] - w0.get(name, 0) for name in w1]
    mean = statistics.mean(per_worker) if per_worker else 0.0
    return {
        "service.client.request_s": client_request_s,
        "service.orchestrator.request_s": orchestrator_s,
        "service.orchestrator.route_s": secs("repro_orchestrator_route_seconds"),
        "service.orchestrator.merge_s": secs("repro_orchestrator_merge_seconds"),
        "service.orchestrator.shard_s": secs("repro_orchestrator_shard_seconds"),
        "service.worker.queue_wait_s": secs("repro_engine_queue_wait_seconds"),
        "service.worker.execute_s": secs("repro_engine_execute_seconds"),
        "service.transport_s": client_request_s - orchestrator_s,
        # Units answered without an evaluator run: from the score memo
        # or by riding an identical task already in flight.
        "service.memo_hit_ratio": (
            1.0 - count("repro_engine_executed_total") / units if units else 0.0
        ),
        "service.executed": count("repro_engine_executed_total"),
        "service.routed_skew": max(per_worker) / mean if mean else 0.0,
        "service.failovers": count("repro_orchestrator_failovers_total"),
        "service.hedges_sent": sent,
        "service.hedge_win_ratio": (
            count("repro_orchestrator_hedges_won_total") / sent if sent else 0.0
        ),
        "service.shed": count("repro_server_shed_total") + client_shed,
    }


class FleetWorkload:
    name = "fleet"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: ``(t_sent, t_answered, kind, keys, values, errors, slice)`` per request.
        self.requests: list[tuple] = []
        #: ``(wall_s, host factor)`` per slice of the window.
        self.walls: list[tuple[float, float]] = []
        self.scale: dict = {}

    def setup(self) -> None:
        """The fixture: the task catalogue and the seeded Zipf trace."""
        self._service = importlib.import_module("repro.service")
        self._errors = importlib.import_module("repro.exceptions")
        self.tasks = [
            {
                "system": {
                    "kind": "single_communication",
                    "params": {"u": u, "v": v, "comm_time": 1.0},
                },
                "solver": "deterministic",
                "model": model,
                "options": {},
            }
            for u in SIDES for v in SIDES for model in MODELS
        ]
        # The popularity ranking is part of the workload, not of the seed:
        # which tasks are hot decides their cost and the shard balance,
        # and redrawing it per seed made runs bimodal. The seed draws the
        # trace.
        popularity = np.random.default_rng(POPULARITY_SEED).permutation(len(self.tasks))
        weights = 1.0 / np.arange(1, len(self.tasks) + 1) ** ZIPF_S
        self._trace = popularity[
            np.random.default_rng([self.seed]).choice(
                len(self.tasks), size=TRACE_LEN, p=weights / weights.sum()
            )
        ]
        self.scale = {
            "workers": N_WORKERS,
            "clients": ["evaluate", f"batch of {BATCH}"],
            "distinct_tasks": len(self.tasks),
            "zipf_s": ZIPF_S,
        }

    def warm(self, fleet: FleetProcess) -> float:
        """Answer every distinct task once; seconds taken.

        The window then measures the steady state this workload is about
        -- memo hits, where the per-request service overhead dominates --
        instead of a cold start whose length depends on when the trace
        first reaches each rare task.
        """
        t0 = time.perf_counter()
        with self._service.ServiceClient(*fleet.endpoint, timeout=STARTUP_TIMEOUT_S) as conn:
            _values, failures, _stats = conn.evaluate_batch(self.tasks)
        if failures:
            raise RuntimeError(f"fleet warm-up failed: {failures[:3]}")
        return time.perf_counter() - t0

    def measure(self, fleet: FleetProcess, seconds: float, scrape: bool, host) -> dict:
        """Drive the fleet closed-loop for ``seconds`` from two clients.

        ``host`` times the calibration kernel after every slice. With
        ``scrape``, the fleet's own ``metrics`` and ``stats`` are read
        before and after the window, outside it.
        """
        clock = time.perf_counter
        cursor = _Cursor(self._trace)
        n_slices = max(1, round(seconds / SLICE_S))
        before = self._scrape(fleet) if scrape else None
        # The clients and this thread meet at ``go`` when a slice starts
        # and at ``idle`` once both clients have their last answer.
        go = threading.Barrier(3, timeout=BARRIER_TIMEOUT_S)
        idle = threading.Barrier(3, timeout=BARRIER_TIMEOUT_S)
        deadline = [0.0]
        rows = {"single": [], "batch": []}
        crashed: list[BaseException] = []

        def client(kind: str) -> None:
            try:
                size = 1 if kind == "single" else BATCH
                with self._service.ServiceClient(
                    *fleet.endpoint, timeout=REQUEST_TIMEOUT_S
                ) as conn:
                    conn.ping()  # connect outside the window
                    out = rows[kind]
                    for k in range(n_slices):
                        go.wait()
                        end = deadline[0]
                        while (sent := clock()) < end:
                            keys = cursor.take(size)
                            values, errors = self._send(conn, keys)
                            out.append((sent, clock(), kind, keys, values, errors, k))
                        idle.wait()
            except BaseException as exc:  # surfaced by the main thread
                crashed.append(exc)
                go.abort()
                idle.abort()

        threads = [threading.Thread(target=client, args=(k,)) for k in rows]
        for thread in threads:
            thread.start()
        self.walls = []
        try:
            for _ in range(n_slices):
                start = clock()
                deadline[0] = start + SLICE_S
                go.wait()
                idle.wait()
                wall = clock() - start
                self.walls.append((wall, host.factor()))
        except threading.BrokenBarrierError:
            pass  # a client failed: raised below
        for thread in threads:
            thread.join(timeout=BARRIER_TIMEOUT_S)
        if crashed:
            raise crashed[0]
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a fleet client did not finish")
        self.requests = rows["single"] + rows["batch"]
        result = {
            # Each client spends every slice's wall time in the window.
            "client_window_s": len(rows) * sum(wall for wall, _ in self.walls),
            "peak_rss_mb": peak_rss_tree_mb(fleet.proc.pid),
        }
        if scrape:
            after = self._scrape(fleet)
            shed = sum(
                e == "ServiceOverloaded" for r in self.requests for e in r[5]
            )
            client_s = sum(r[1] - r[0] for r in self.requests)
            result["service"] = service_metrics(before, after, client_s, shed)
            result["client_request_s"] = client_s
        return result

    def _send(self, conn, keys: list[int]):
        """``(values, errors)`` of one request; a failed request fails every task."""
        try:
            if len(keys) == 1:
                return [conn.evaluate(self.tasks[keys[0]])], [None]
            values, failures, _ = conn.evaluate_batch([self.tasks[k] for k in keys])
            errors = [None] * len(keys)
            for failure in failures:
                errors[failure.get("index", 0)] = failure.get("error", "failure")
            return values, errors
        except self._errors.ServiceError as exc:
            return [None] * len(keys), [type(exc).__name__] * len(keys)

    def _scrape(self, fleet: FleetProcess):
        with self._service.ServiceClient(*fleet.endpoint, timeout=REQUEST_TIMEOUT_S) as conn:
            return conn.metrics()["metrics"], conn.stats()

    def latencies(self) -> list[float]:
        """Single-evaluate request latencies at the reference speed (the
        percentiles cover these)."""
        return [t for _, _, latencies in self.slices() for t in latencies]

    def units(self) -> int:
        return sum(len(r[3]) for r in self.requests)

    def slices(self) -> list[tuple[float, int, list[float]]]:
        """Per slice of the window, at the reference speed: its wall time,
        the units answered in it and its single-evaluate latencies."""
        groups: list[list[tuple]] = [[] for _ in self.walls]
        for request in self.requests:
            groups[request[6]].append(request)
        slices = []
        for (wall, factor), group in zip(self.walls, groups):
            latencies = [(r[1] - r[0]) * factor for r in group if r[2] == "single"]
            if latencies:
                slices.append((wall * factor, sum(len(r[3]) for r in group), latencies))
        return slices

    def check(self):
        """Every answer equals the in-process ``evaluate_tasks`` answer."""
        batch = importlib.import_module("repro.evaluate.batch")
        keys = sorted({k for r in self.requests for k in r[3]})
        expected = dict(zip(keys, batch.evaluate_tasks(
            [self._service.normalize_task(self.tasks[k]) for k in keys]
        )))
        failed, messages = 0, []
        for _sent, _done, kind, req_keys, values, errors, _slice in self.requests:
            for key, value, error in zip(req_keys, values, errors):
                if error is not None:
                    failed += 1
                    messages.append(f"{kind} request: {error}")
                elif value != expected[key]:
                    failed += 1
                    messages.append(
                        f"task {key}: fleet answered {value!r}, "
                        f"in-process {expected[key]!r}"
                    )
        notes = [f"{len(keys)} distinct tasks checked against evaluate_tasks"]
        return failed, messages, notes
