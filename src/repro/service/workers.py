"""Evaluation engine: shared caches + persistent worker pool + coalescing.

One :class:`EvaluationEngine` lives for the whole life of a service
process. It resolves each distinct wire task once — its solver,
mapping, model and score digest stay in a
:class:`~repro.service.protocol.TaskMemo` bounded like the structure
cache — and executes every request against three cooperating layers:

1. the **tier-2 disk cache** (:class:`~repro.service.diskcache.DiskScoreCache`,
   optional) — answers repeat queries across server restarts;
2. the **coalescing queue** (:class:`~repro.service.queue.CoalescingQueue`)
   — merges identical in-flight requests into one evaluator run;
3. the **solver layer** — :func:`repro.evaluate.evaluate_tasks` in
   ``on_error="record"`` mode over one long-lived
   :class:`~repro.evaluate.cache.StructureCache` (optionally
   LRU-bounded) and, for ``n_jobs > 1``, one persistent
   :class:`~concurrent.futures.ProcessPoolExecutor` amortized across
   every request the server ever handles.

Request handler threads call :meth:`run_batch` concurrently. The solver
layer is guarded by one lock (the structure cache and the pool are not
thread-safe); parallelism across a batch comes from the worker pool,
and concurrency across *identical* requests from coalescing — a leader
resolves all its futures before waiting on anyone else's, so the
claim/resolve discipline cannot deadlock.

The engine survives partial failure: a worker process that dies
mid-batch (OOM kill, segfault) surfaces as ``BrokenExecutor``, and the
engine rebuilds the pool and re-executes the in-flight tasks under a
bounded restart budget — past the budget it degrades to in-process
serial execution so the daemon keeps answering. Both the restart count
and the degraded flag are exported through :meth:`status` for the
``ping``/``stats`` operations.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

from repro.campaign.spec import SystemSpec
from repro.evaluate.batch import TaskFailure, evaluate_tasks
from repro.evaluate.cache import StructureCache
from repro.evaluate.solvers import ThroughputSolver, get_solver
from repro.exceptions import InvalidDistributionError, ReproError, ServiceError
from repro.mapping.mapping import Mapping
from repro.service.diskcache import DiskScoreCache, score_digest
from repro.service.faults import FaultInjector
from repro.service.protocol import TaskMemo
from repro.service.queue import CoalescingQueue
from repro.telemetry import MetricsRegistry, get_logger
from repro.telemetry.clock import monotonic_clock
from repro.telemetry.profile import Profiler, profiling
from repro.types import ExecutionModel

log = get_logger("service.engine")

#: The keys a task payload may carry (``options`` may be omitted).
_TASK_KEYS = {"system", "solver", "model", "options"}


def normalize_task(
    task: dict,
) -> tuple[ThroughputSolver, Mapping, ExecutionModel]:
    """Validate one wire-format task and build its evaluation triple.

    A task is the JSON shape the campaign runner ships:
    ``{"system": <SystemSpec dict>, "solver": <registry name>,
    "model": "overlap"|"strict", "options": {...}}``. Anything else —
    unknown keys, an unknown solver, a system that cannot be built —
    raises (:class:`ServiceError` or a library error), which
    :meth:`EvaluationEngine.run_batch` records against that task's slot
    only.
    """
    if not isinstance(task, dict):
        raise ServiceError(f"a task must be a JSON object, got {task!r}")
    unknown = set(task) - _TASK_KEYS
    if unknown:
        raise ServiceError(
            f"unknown task key(s): {', '.join(sorted(map(str, unknown)))}; "
            f"allowed: {', '.join(sorted(_TASK_KEYS))}"
        )
    missing = {"system", "solver"} - set(task)
    if missing:
        raise ServiceError(
            f"task is missing key(s): {', '.join(sorted(missing))}"
        )
    options = task.get("options", {})
    if not isinstance(options, dict):
        raise ServiceError(f"task options must be an object, got {options!r}")
    mapping = SystemSpec.from_dict(task["system"]).build()
    if not isinstance(task["solver"], str):
        raise ServiceError(
            f"task solver must be a registry name, got {task['solver']!r}"
        )
    try:
        solver = get_solver(task["solver"], **options)
    except (TypeError, ValueError, InvalidDistributionError) as exc:
        # A bad option name (TypeError) or a bad option value: the same
        # tuple the campaign runner's prepare step reports.
        raise ServiceError(
            f"cannot configure solver {task['solver']!r} "
            f"with options {options!r}: {exc}"
        ) from None
    try:
        model = ExecutionModel.coerce(task.get("model", "overlap"))
    except ValueError as exc:
        raise ServiceError(str(exc)) from None
    return solver, mapping, model


def _resolve_task(
    task: dict,
) -> tuple[ThroughputSolver, Mapping, ExecutionModel, str]:
    """:func:`normalize_task` plus the task's score digest."""
    solver, mapping, model = normalize_task(task)
    return solver, mapping, model, score_digest(solver, mapping, model)


class EvaluationEngine:
    """Long-lived executor shared by every connection of a service."""

    def __init__(
        self,
        *,
        n_jobs: int = 1,
        cache: StructureCache | None = None,
        disk: DiskScoreCache | None = None,
        max_entries: int | None = None,
        max_pool_restarts: int = 3,
        faults: FaultInjector | None = None,
        metrics: MetricsRegistry | None = None,
        clock: Callable[[], float] = monotonic_clock,
        profiler: Profiler | None = None,
    ) -> None:
        if n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        if max_pool_restarts < 0:
            raise ValueError("max_pool_restarts must be >= 0")
        if cache is None:
            cache = StructureCache(max_entries=max_entries)
        elif max_entries is not None:
            raise ValueError(
                "max_entries only applies to the engine-owned cache; "
                "bound the provided StructureCache at construction instead"
            )
        self.cache = cache
        #: Wire task → ``(solver, mapping, model, digest)``, bounded like
        #: the score memo it fronts, so a repeated task is resolved once.
        self.resolved = TaskMemo(cache.max_entries)
        self.disk = disk
        self.n_jobs = n_jobs
        self.max_pool_restarts = max_pool_restarts
        self.faults = faults
        self.queue = CoalescingQueue()
        # The structure cache, the pool and the disk store are plain
        # single-threaded objects; each gets one guard. _eval_lock also
        # serializes solver work, which is intentional: CPU parallelism
        # belongs to the process pool, not to handler threads.
        self._eval_lock = threading.Lock()
        self._disk_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = None
        self.batches = 0
        self.units = 0
        self.executed = 0
        self.disk_hits = 0
        self.memo_hits = 0
        self.failures = 0
        self.disk_errors = 0
        #: Worker pools rebuilt after a BrokenProcessPool (crash recovery).
        self.pool_restarts = 0
        #: Set once the restart budget is spent: the engine stops
        #: spawning pools and answers from in-process serial execution.
        self.degraded = False
        self.clock = clock
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Per-phase cost attribution behind the ``profile`` op. The
        #: batch/queue_wait/execute phases are recorded from the *same*
        #: clock reads the latency histograms observe, so the profile
        #: root total and ``repro_engine_batch_seconds``' sum reconcile
        #: exactly; solver-internal phases nest under batch/execute.
        self.profiler = (
            profiler if profiler is not None else Profiler(clock=clock)
        )
        self._bind_metrics()

    def _bind_metrics(self) -> None:
        """Register the engine's instruments on its registry.

        Every counter here is *callback-backed* by the legacy ad-hoc
        counter it replaces — the ``metrics`` op reads the same integers
        the ``stats`` op does, so the two always reconcile exactly.
        """
        m = self.metrics
        m.counter("repro_engine_batches_total", "run_batch calls", fn=lambda: self.batches)
        m.counter("repro_engine_units_total", "tasks received", fn=lambda: self.units)
        m.counter("repro_engine_executed_total", "evaluator runs", fn=lambda: self.executed)
        m.counter("repro_engine_disk_hits_total", "tier-2 disk cache hits", fn=lambda: self.disk_hits)
        m.counter("repro_engine_memo_hits_total", "structure-cache score memo hits", fn=lambda: self.memo_hits)
        m.counter("repro_engine_failures_total", "tasks answered with a TaskFailure", fn=lambda: self.failures)
        m.counter("repro_engine_disk_errors_total", "best-effort disk cache write errors", fn=lambda: self.disk_errors)
        m.counter("repro_engine_pool_restarts_total", "worker pools rebuilt after a crash", fn=lambda: self.pool_restarts)
        m.gauge("repro_engine_degraded", "1 once the restart budget is spent", fn=lambda: int(self.degraded))
        m.counter("repro_coalesce_leads_total", "digests this process computed", fn=lambda: self.queue.leads)
        m.counter("repro_coalesced_total", "tasks served by another request's run", fn=lambda: self.queue.coalesced)
        m.gauge("repro_coalesce_in_flight", "digests currently being computed", fn=lambda: self.queue.in_flight())
        m.counter("repro_structure_cache_hits_total", "score memo hits", fn=lambda: self.cache.hits)
        m.counter("repro_structure_cache_misses_total", "score memo misses", fn=lambda: self.cache.misses)
        m.counter("repro_structure_cache_evictions_total", "LRU evictions", fn=lambda: self.cache.evictions)
        m.gauge("repro_structure_cache_scores", "memoized scores resident", fn=lambda: self.cache.stats()["scores"])
        m.counter("repro_disk_cache_hits_total", "disk cache hits", fn=lambda: 0 if self.disk is None else self.disk.hits)
        m.counter("repro_disk_cache_misses_total", "disk cache misses", fn=lambda: 0 if self.disk is None else self.disk.misses)
        m.gauge("repro_disk_cache_entries", "digests persisted on disk", fn=lambda: 0 if self.disk is None else len(self.disk))
        self._hist_queue_wait = m.histogram(
            "repro_engine_queue_wait_seconds", "time a batch waited for the evaluation guard"
        )
        self._hist_execute = m.histogram(
            "repro_engine_execute_seconds", "time a batch spent in the evaluator"
        )
        self._hist_batch = m.histogram(
            "repro_engine_batch_seconds", "end-to-end run_batch latency"
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_batch(self, tasks: list[dict]) -> tuple[list, dict]:
        """Execute wire-format ``tasks``; return ``(results, stats)``.

        ``results`` holds one entry per task, in order: a float score or
        a :class:`TaskFailure`. ``stats`` describes what *this* batch
        cost: ``executed`` counts actual evaluator runs, ``disk_hits`` /
        ``memo_hits`` the two cache tiers, ``coalesced`` the tasks
        served by another request's in-flight run.
        """
        t_start = self.clock()
        queue_wait_s = 0.0
        execute_s = 0.0
        n = len(tasks)
        results: list = [None] * n
        stats = {
            "units": n,
            "executed": 0,
            "disk_hits": 0,
            "memo_hits": 0,
            "coalesced": 0,
            "failures": 0,
        }

        # 1. Validate and build each task, once per distinct task;
        #    failures stay per-slot and are never memoized.
        norm: dict[int, tuple[ThroughputSolver, Mapping, ExecutionModel, str]] = {}
        for i, task in enumerate(tasks):
            try:
                norm[i] = self.resolved.get(task, _resolve_task)
            except (ReproError, TypeError, ValueError, KeyError) as exc:
                results[i] = TaskFailure.of(exc)

        # 2. Tier-2 lookup, then group what is left by digest.
        pending: dict[str, list[int]] = {}
        for i, (_s, _mp, _model, digest) in norm.items():
            if self.disk is not None:
                with self._disk_lock:
                    value = self.disk.get(digest)
                if value is not None:
                    results[i] = value
                    stats["disk_hits"] += 1
                    continue
            pending.setdefault(digest, []).append(i)

        # 3. Claim every digest: this request leads the ones nobody else
        #    is computing and follows the rest. In-batch duplicates of a
        #    led digest count as coalesced too (they ride the one run
        #    this batch starts), so the printed cost breakdown always
        #    accounts for every unit.
        claimed: dict[str, tuple] = {}
        leaders: list[str] = []
        for digest, idxs in pending.items():
            future, leads = self.queue.claim(digest)
            claimed[digest] = future
            if leads:
                leaders.append(digest)
                stats["coalesced"] += len(idxs) - 1
            else:
                stats["coalesced"] += len(idxs)

        # 4. One evaluator pass over the led digests. The futures are
        #    always resolved — an unexpected error becomes a TaskFailure
        #    for every led task, never a deadlocked follower. Everything
        #    from the moment keys are claimed runs inside the guard:
        #    even a bug between claim and dispatch cannot strand anyone.
        if leaders:
            try:
                lead_tasks = [norm[pending[d][0]][:3] for d in leaders]
                t_wait = self.clock()
                with self._eval_lock:
                    t_exec = self.clock()
                    queue_wait_s = t_exec - t_wait
                    hits0, misses0 = self.cache.hits, self.cache.misses
                    # Solver-internal profile spans (fingerprint, net
                    # build, reachability, CTMC, simulate) land under
                    # batch/execute on this thread for the duration of
                    # the evaluator pass.
                    with profiling(
                        self.profiler, base=("batch", "execute")
                    ):
                        values = self._evaluate_resilient(lead_tasks)
                    execute_s = self.clock() - t_exec
                    # A failure value is an evaluator run that raised
                    # mid-flight (resolution errors never reach here),
                    # and is never store()d — count both kinds of run.
                    stats["executed"] += (self.cache.misses - misses0) + sum(
                        isinstance(v, TaskFailure) for v in values
                    )
                    stats["memo_hits"] += self.cache.hits - hits0
            except BaseException as exc:
                failure = TaskFailure.of(exc)
                for digest in leaders:
                    self.queue.resolve(digest, claimed[digest], failure)
                raise
            resolved: set[str] = set()
            try:
                for digest, value in zip(leaders, values):
                    if self.disk is not None and not isinstance(
                        value, TaskFailure
                    ):
                        solver, _mp, model = norm[pending[digest][0]][:3]
                        try:
                            with self._disk_lock:
                                self.disk.put(
                                    digest,
                                    value,
                                    solver=solver.name,
                                    model=model.value,
                                )
                        except Exception:
                            # Tier-2 persistence is best-effort: a full
                            # disk must degrade the cache, not the
                            # answer (the value is already computed).
                            with self._stats_lock:
                                self.disk_errors += 1
                    self.queue.resolve(digest, claimed[digest], value)
                    resolved.add(digest)
            except BaseException as exc:
                # Safety net for bugs in the loop itself: strand no
                # follower, whatever happens.
                failure = TaskFailure.of(exc)
                for digest in leaders:
                    if digest not in resolved:
                        self.queue.resolve(digest, claimed[digest], failure)
                raise

        # 5. Collect: leader futures are already resolved; follower
        #    futures block until their leader publishes.
        for digest, idxs in pending.items():
            value = claimed[digest].result()
            for i in idxs:
                results[i] = value

        stats["failures"] = sum(isinstance(r, TaskFailure) for r in results)
        with self._stats_lock:
            self.batches += 1
            self.units += n
            self.executed += stats["executed"]
            self.disk_hits += stats["disk_hits"]
            self.memo_hits += stats["memo_hits"]
            self.failures += stats["failures"]
        total_s = self.clock() - t_start
        self._hist_queue_wait.observe(queue_wait_s)
        self._hist_execute.observe(execute_s)
        self._hist_batch.observe(total_s)
        # Same floats as the histograms above: profile/metrics reconcile
        # exactly, and batch self-time is the validation/collect overhead.
        self.profiler.record(("batch",), total_s)
        self.profiler.record(("batch", "queue_wait"), queue_wait_s)
        self.profiler.record(("batch", "execute"), execute_s)
        stats["span"] = {
            "queue_wait_s": queue_wait_s,
            "execute_s": execute_s,
            "total_s": total_s,
        }
        log.debug(
            "batch: units=%d executed=%d disk_hits=%d memo_hits=%d "
            "coalesced=%d failures=%d total=%.6fs",
            n, stats["executed"], stats["disk_hits"], stats["memo_hits"],
            stats["coalesced"], stats["failures"], total_s,
        )
        return results, stats

    # ------------------------------------------------------------------
    # Pool and lifecycle
    # ------------------------------------------------------------------
    def _evaluate_resilient(self, lead_tasks: list) -> list:
        """``evaluate_tasks`` with worker-crash recovery (under _eval_lock).

        A crashed worker process (OOM kill, segfault, an injected
        ``crash`` fault) surfaces as ``BrokenExecutor`` from the pool.
        The in-flight lead tasks lose nothing — no value was folded back
        yet — so the engine discards the broken pool, rebuilds it, and
        re-executes the whole pass. The restart budget bounds how often
        that may happen per engine lifetime
        (:attr:`max_pool_restarts`); past it, the engine *degrades* to
        in-process serial execution instead of churning pools, so the
        daemon keeps answering (slower) rather than failing requests.
        """
        while True:
            pool = self._get_pool()
            if (
                pool is not None
                and self.faults is not None
                and self.faults.take("crash")
            ):
                self.faults.kill_pool_worker(pool)
            try:
                return evaluate_tasks(
                    lead_tasks,
                    cache=self.cache,
                    n_jobs=1 if pool is None else self.n_jobs,
                    pool=pool,
                    on_error="record",
                )
            except BrokenExecutor:
                self._discard_pool()
                with self._stats_lock:
                    self.pool_restarts += 1
                    if self.pool_restarts > self.max_pool_restarts:
                        self.degraded = True
                if self.degraded:
                    log.error(
                        "pool restart budget spent (%d/%d): degrading to serial",
                        self.pool_restarts, self.max_pool_restarts,
                    )
                else:
                    log.warning(
                        "worker pool crashed; rebuilding (restart %d/%d)",
                        self.pool_restarts, self.max_pool_restarts,
                    )

    def _get_pool(self) -> ProcessPoolExecutor | None:
        """The persistent executor (lazily spawned; None when serial).

        A degraded engine (restart budget spent) never spawns another
        pool: every evaluation runs in-process until the operator
        restarts the service.
        """
        if self.n_jobs == 1 or self.degraded:
            return None
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.n_jobs)
        return self._pool

    def _discard_pool(self) -> None:
        """Drop a broken executor (its workers are already gone)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=False)
            except Exception:
                pass

    def close(self) -> None:
        """Shut the worker pool down (idempotent).

        The ``torn_tail`` fault hook lives here: tearing the disk
        cache's final record at engine teardown is byte-for-byte what a
        crash during the last append leaves behind, and the *next*
        server on this cache must repair it.
        """
        if (
            self.faults is not None
            and self.disk is not None
            and self.faults.take("torn_tail")
        ):
            self.faults.tear_cache_tail(self.disk.path)
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "EvaluationEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def status(self) -> dict:
        """The counter block of the service's ``ping`` reply."""
        with self._stats_lock:
            totals = {
                "batches": self.batches,
                "units": self.units,
                "executed": self.executed,
                "disk_hits": self.disk_hits,
                "memo_hits": self.memo_hits,
                "failures": self.failures,
                "disk_errors": self.disk_errors,
            }
            pool = {
                "n_jobs": self.n_jobs,
                "restarts": self.pool_restarts,
                "max_restarts": self.max_pool_restarts,
                "degraded": self.degraded,
                "active": self._pool is not None,
            }
        return {
            "requests": totals,
            "structure_cache": self.cache.stats(),
            "queue": self.queue.stats(),
            "disk_cache": self.disk.stats() if self.disk is not None else None,
            "pool": pool,
            "n_jobs": self.n_jobs,
            "faults": self.faults.stats() if self.faults is not None else None,
        }
