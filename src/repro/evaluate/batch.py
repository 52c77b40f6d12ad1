"""Single and batched mapping evaluation through the solver registry.

:func:`evaluate` scores one mapping; :func:`evaluate_many` scores a
whole candidate batch under one solver; :func:`evaluate_tasks` scores a
heterogeneous batch where every task brings its own solver and model
(the campaign runner's shape). Both batch APIs share one core:
fingerprint-level deduplication through an optional
:class:`~repro.evaluate.cache.StructureCache` memo, and an optional
process pool with the same fan-out discipline as
:func:`repro.sim.runner.replicate` — work is dispatched in stream order
and folded back by index, so ``n_jobs > 1`` is bit-identical to the
serial loop.

:func:`evaluate_tasks` additionally accepts ``on_error="record"``: a
task that raises (bad solver configuration, a state-space limit, a
numerical failure) yields a :class:`TaskFailure` record in its result
slot instead of aborting the whole batch — the mode a long-lived
evaluation service needs to survive one poisoned request.
"""

from __future__ import annotations

import dataclasses
import pickle
import warnings
from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor

from repro.evaluate.cache import StructureCache
from repro.evaluate.solvers import ThroughputSolver, get_solver
from repro.mapping.mapping import Mapping
from repro.types import ExecutionModel

#: One unit of batched work: a ready solver, a mapping, a coerced model.
Task = tuple[ThroughputSolver, Mapping, ExecutionModel]


@dataclasses.dataclass(frozen=True)
class TaskFailure:
    """Structured record of one failed task in an ``on_error="record"`` batch.

    Carries the exception class name and message, never the exception
    object itself — failures must survive a trip through a worker
    process, a JSON protocol frame, or a result log unchanged.
    """

    error: str
    message: str
    #: Trace id of the request this failure was answered under, when it
    #: travelled through the service (None for direct batch runs).
    request_id: str | None = None
    #: Structured cause beyond the exception, e.g. ``"quarantined"`` for
    #: a unit the orchestrator refused to keep re-dispatching after it
    #: failed on ``max_unit_attempts`` distinct workers.
    reason: str | None = None

    def to_dict(self) -> dict:
        record = {"error": self.error, "message": self.message}
        if self.request_id is not None:
            record["request_id"] = self.request_id
        if self.reason is not None:
            record["reason"] = self.reason
        return record

    @classmethod
    def of(cls, exc: BaseException) -> "TaskFailure":
        return cls(error=type(exc).__name__, message=str(exc))

    def stamp(self, request_id: str | None) -> "TaskFailure":
        """A copy carrying the trace id (self when there is nothing to add)."""
        if request_id is None or self.request_id is not None:
            return self
        return dataclasses.replace(self, request_id=request_id)


def resolve_solver(solver: ThroughputSolver | str, options: dict) -> ThroughputSolver:
    """Turn a registry name (plus options) or a ready instance into a solver."""
    if isinstance(solver, str):
        return get_solver(solver, **options)
    if options:
        raise TypeError(
            "solver options are only accepted together with a registry name; "
            "configure the instance directly instead"
        )
    return solver


def _options_key(solver: ThroughputSolver) -> tuple:
    """Canonical, hashable key of a solver's frozen configuration."""
    if dataclasses.is_dataclass(solver):
        return tuple(
            (f.name, getattr(solver, f.name))
            for f in dataclasses.fields(solver)
        )
    return (repr(solver),)


def evaluate(
    mapping: Mapping,
    *,
    solver: ThroughputSolver | str = "deterministic",
    model: ExecutionModel | str = "overlap",
    cache: StructureCache | None = None,
    **options,
) -> float:
    """Score one mapping with a named (or given) solver.

    With a ``cache``, the score is memoized under the mapping's canonical
    timing fingerprint and structural artefacts (nets, reachability) are
    shared with every other evaluation routed through the same cache.
    """
    s = resolve_solver(solver, options)
    model = ExecutionModel.coerce(model)
    if cache is None:
        return s.solve(mapping, model)
    key = cache.score_key(mapping, model, s.name, _options_key(s))
    return cache.score(key, lambda: s.solve(mapping, model, cache=cache))


def _solve_payload(payload: tuple) -> float:
    solver, mapping, model_value = payload
    return solver.solve(mapping, ExecutionModel(model_value))


def _solve_payload_record(payload: tuple) -> tuple:
    """Worker-side solve that tags failures instead of raising.

    Returns ``("ok", value)`` or ``("err", class_name, message)`` — plain
    tuples, so a failure crosses the process boundary even when the
    exception object itself would not pickle.
    """
    try:
        return ("ok", _solve_payload(payload))
    except Exception as exc:
        return ("err", type(exc).__name__, str(exc))


def evaluate_many(
    mappings: Iterable[Mapping],
    *,
    solver: ThroughputSolver | str = "deterministic",
    model: ExecutionModel | str = "overlap",
    cache: StructureCache | None = None,
    n_jobs: int = 1,
    pool: ProcessPoolExecutor | None = None,
    **options,
) -> list[float]:
    """Score a batch of candidate mappings, deduplicated and parallel.

    Candidates are keyed by their canonical timing fingerprint: repeated
    or isomorphic candidates (same replication and slot-wise mean times,
    whatever the processor identities) are evaluated once. ``cache``
    carries the memo across calls — a search loop passing the same cache
    never re-evaluates any candidate it has seen.

    ``n_jobs > 1`` fans the unique evaluations over a process pool.
    Solvers are pure functions of ``(mapping, model)`` (the simulation
    solver derives its stream from the candidate fingerprint, not from
    evaluation order), and results are folded back in submission order,
    so the output is bit-identical to the serial loop. A caller scoring
    many batches (a search loop, a resident service) can pass its own
    ``pool`` to amortize one executor across all of them; it is ignored
    when ``n_jobs == 1`` and never shut down here.
    """
    s = resolve_solver(solver, options)
    model = ExecutionModel.coerce(model)
    if n_jobs < 1:
        raise ValueError("n_jobs must be >= 1")
    if cache is None:
        cache = StructureCache()
    tasks: list[Task] = [(s, mapping, model) for mapping in mappings]
    if not cache.enabled:
        return _run_uncached(tasks, cache, n_jobs, pool=pool)
    return _evaluate_batch(tasks, cache, n_jobs, pool=pool)


def evaluate_tasks(
    tasks: Iterable[tuple[ThroughputSolver | str, Mapping, ExecutionModel | str]],
    *,
    cache: StructureCache | None = None,
    n_jobs: int = 1,
    pool: ProcessPoolExecutor | None = None,
    on_error: str = "raise",
) -> list[float | TaskFailure]:
    """Score a heterogeneous batch where every task brings its own solver.

    Each task is a ``(solver, mapping, model)`` triple — a ready solver
    instance or a registry name (names get default options; configure an
    instance for anything else). Unlike :func:`evaluate_many`, one batch
    may mix solvers, options and models, which is what the campaign
    runner needs: a sweep's units differ per-axis in all three.

    The guarantees match :func:`evaluate_many`: tasks are deduplicated
    on ``(solver, options, timing fingerprint)`` through the shared
    ``cache`` memo, unique work is dispatched in stream order and folded
    back by index, and because solvers are pure functions of
    ``(mapping, model)``, ``n_jobs > 1`` is bit-identical to the serial
    loop.

    ``pool`` lets a caller issuing many batches (the campaign runner's
    crash-safe chunks) amortize one executor across all of them instead
    of spawning workers per call; it is ignored when ``n_jobs == 1`` and
    never shut down here.

    ``on_error="record"`` turns any per-task exception — at solver
    resolution or at solve time — into a :class:`TaskFailure` in that
    task's result slot, leaving the rest of the batch intact. Failures
    are never memoized (a retried request recomputes), and duplicates of
    a failed task share the leader's failure record without counting as
    cache hits. The default ``"raise"`` keeps the historical fail-fast
    contract.
    """
    if on_error not in ("raise", "record"):
        raise ValueError("on_error must be 'raise' or 'record'")
    record = on_error == "record"
    seq = list(tasks)
    # Per-task resolution failures (unknown solver name, a mapping whose
    # model coercion fails) are recorded against their slot, so one
    # malformed task cannot poison the batch.
    pre: dict[int, TaskFailure] = {}
    norm: list[Task] = []
    for i, (solver, mapping, model) in enumerate(seq):
        try:
            norm.append(
                (resolve_solver(solver, {}), mapping, ExecutionModel.coerce(model))
            )
        except Exception as exc:
            if not record:
                raise
            pre[i] = TaskFailure.of(exc)
    if n_jobs < 1:
        raise ValueError("n_jobs must be >= 1")
    if cache is None:
        cache = StructureCache()
    if not cache.enabled:
        values = _run_uncached(norm, cache, n_jobs, pool=pool, record=record)
    else:
        values = _evaluate_batch(norm, cache, n_jobs, pool=pool, record=record)
    if not pre:
        return values
    healthy = iter(values)
    return [pre[i] if i in pre else next(healthy) for i in range(len(seq))]


def _task_options_key(memo: dict[int, tuple], solver: ThroughputSolver) -> tuple:
    """``_options_key`` memoized per solver instance (one, not N, per batch)."""
    key = memo.get(id(solver))
    if key is None:
        key = memo[id(solver)] = _options_key(solver)
    return key


def _run_uncached(
    tasks: list[Task],
    cache: StructureCache,
    n_jobs: int,
    pool: ProcessPoolExecutor | None = None,
    record: bool = False,
) -> list[float | TaskFailure]:
    """Disabled-cache semantics: every request evaluated independently.

    This is the pre-refactor cost model (no dedup, no memo); the
    disabled cache still counts misses.
    """
    values = _run_tasks(tasks, n_jobs, pool=pool, record=record)
    opts_keys: dict[int, tuple] = {}
    out: list[float | TaskFailure] = []
    for (s, mapping, model), value in zip(tasks, values):
        if isinstance(value, TaskFailure):
            out.append(value)
            continue
        out.append(
            cache.store(
                cache.score_key(
                    mapping, model, s.name, _task_options_key(opts_keys, s)
                ),
                value,
            )
        )
    return out


def _evaluate_batch(
    tasks: list[Task],
    cache: StructureCache,
    n_jobs: int,
    pool: ProcessPoolExecutor | None = None,
    record: bool = False,
) -> list[float | TaskFailure]:
    """Shared dedup + dispatch + fold core of the two batch APIs."""
    results: list[float | TaskFailure | None] = [None] * len(tasks)
    firsts: dict[tuple, int] = {}
    keys: list[tuple] = []
    pending: list[int] = []
    dups: list[int] = []
    opts_keys: dict[int, tuple] = {}
    for idx, (s, mapping, model) in enumerate(tasks):
        key = cache.score_key(
            mapping, model, s.name, _task_options_key(opts_keys, s)
        )
        keys.append(key)
        cached = cache.lookup(key)
        if cached is not None:
            results[idx] = cached
        elif key in firsts:
            dups.append(idx)
        else:
            firsts[key] = idx
            pending.append(idx)

    values = _run_tasks(
        [tasks[i] for i in pending], n_jobs, cache=cache, pool=pool, record=record
    )
    fresh: dict[tuple, float | TaskFailure] = {}
    for i, value in zip(pending, values):
        if isinstance(value, TaskFailure):
            # Never memoized: a failure is not a score, and a retried
            # request must get a fresh chance to compute one.
            fresh[keys[i]] = value
        else:
            fresh[keys[i]] = cache.store(keys[i], value)
    for idx in dups:
        if not isinstance(fresh[keys[idx]], TaskFailure):
            cache.hits += 1  # satisfied by the in-flight duplicate
    for idx in range(len(tasks)):
        if results[idx] is None:
            results[idx] = fresh[keys[idx]]
    return results  # type: ignore[return-value]


def _run_tasks(
    tasks: list[Task],
    n_jobs: int,
    cache: StructureCache | None = None,
    pool: ProcessPoolExecutor | None = None,
    record: bool = False,
) -> list[float | TaskFailure]:
    """Evaluate ``tasks`` serially or over a process pool, in order.

    A caller-provided ``pool`` is reused (and left running); otherwise a
    fresh executor is spawned per call. On any serialization failure the
    batch falls back to the serial loop with a :func:`_warn_serial_fallback`
    warning pointed at the public API's caller.

    With ``record=True``, solve-time exceptions become :class:`TaskFailure`
    values in their slot (worker-side ones cross the pool as tagged
    tuples); serialization failures still fall back to the serial loop.
    """
    n_jobs = min(n_jobs, len(tasks))
    if n_jobs > 1:
        payloads = [(s, mapping, model.value) for s, mapping, model in tasks]
        worker = _solve_payload_record if record else _solve_payload
        # Pre-flight probe: every *distinct* solver instance plus one
        # representative mapping payload. Solvers are where pickling
        # varies in a heterogeneous batch (custom backends may hold
        # closures); probing them all stays O(#solvers), not O(batch),
        # and a worker-side solve() exception is never mistaken for a
        # serialization failure.
        probes = list({id(s): s for s, _, _ in tasks}.values())
        if not _picklable((payloads[0], probes)):
            _warn_serial_fallback()
        else:
            chunksize = max(1, len(payloads) // (4 * n_jobs))
            try:
                if pool is not None:
                    raw = list(pool.map(worker, payloads, chunksize=chunksize))
                else:
                    with ProcessPoolExecutor(max_workers=n_jobs) as own:
                        raw = list(
                            own.map(worker, payloads, chunksize=chunksize)
                        )
                if not record:
                    return raw
                return [
                    r[1] if r[0] == "ok" else TaskFailure(error=r[1], message=r[2])
                    for r in raw
                ]
            except (pickle.PicklingError, TypeError, AttributeError):
                # The probe covers solvers and the first mapping; a later
                # unpicklable mapping surfaces here as any of these types
                # (CPython raises TypeError/AttributeError for most). A
                # retro-probe separates that from a genuine worker-side
                # error of the same type, which must propagate.
                if _picklable(payloads):
                    raise
                _warn_serial_fallback()
    if not record:
        return [s.solve(mapping, model, cache=cache) for s, mapping, model in tasks]
    out: list[float | TaskFailure] = []
    for s, mapping, model in tasks:
        try:
            out.append(s.solve(mapping, model, cache=cache))
        except Exception as exc:
            out.append(TaskFailure.of(exc))
    return out


def _warn_serial_fallback() -> None:
    # stacklevel 5: this helper → _run_tasks → (_evaluate_batch |
    # _run_uncached) → public API → its caller.
    warnings.warn(
        "batched evaluation: a solver or mapping is not picklable; "
        "falling back to serial evaluation",
        RuntimeWarning,
        stacklevel=5,
    )


def _picklable(obj: object) -> bool:
    try:
        pickle.dumps(obj)
    except Exception:
        return False
    return True
