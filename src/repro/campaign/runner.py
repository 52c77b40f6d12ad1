"""Campaign runner: execute run units through the solver registry.

:func:`run_campaign` expands a spec, skips units the store already
holds (``resume``), and scores the rest through
:func:`repro.evaluate.evaluate_tasks` — heterogeneous chunks sharing a
single :class:`~repro.evaluate.cache.StructureCache` and fanning unique
work over ``n_jobs`` workers. Results are appended to the store in
deterministic unit order as each chunk completes (every unit when
serial), so

* a crash loses at most the in-flight chunk; everything already
  appended resumes cleanly (completed units skip);
* serial and ``n_jobs > 1`` runs produce byte-identical stores
  (solvers are pure, and the fold-back preserves submission order);
* seeds derive from unit fingerprints, never from execution order.

:func:`campaign_status` and :func:`campaign_report` are the read side:
progress counts against a spec, and per-scenario
:class:`~repro.experiments.common.ExperimentResult` tables (rows sorted
by fingerprint, hence identical however the store was produced).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.campaign.grid import RunUnit, expand
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
from repro.evaluate.batch import evaluate_tasks
from repro.evaluate.cache import StructureCache
from repro.evaluate.solvers import get_solver
from repro.exceptions import (
    CampaignError,
    InvalidDistributionError,
    ServiceError,
    ServiceOverloaded,
    ServiceTimeout,
)
from repro.experiments.common import ExperimentResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.client import ServiceClient


def unit_record(unit: RunUnit, value: float) -> dict:
    """The JSON record persisted for one scored unit.

    Every field is deterministic given the spec — no timestamps, no
    host data — which is what makes equivalent stores byte-identical.
    ``seed`` is recorded only when a random stream actually used it
    (stochastic solvers carry it in their options); exact analyses get
    no phantom provenance.
    """
    record = {
        "campaign": unit.campaign,
        "scenario": unit.scenario,
        "fingerprint": unit.fingerprint,
        "system": unit.system.to_dict(),
        "solver": unit.solver,
        "model": unit.model,
        "options": dict(unit.options),
        "params": dict(unit.params),
        "value": float(value),
    }
    if "seed" in unit.options:
        record["seed"] = unit.options["seed"]
    return record


def unit_task_payload(unit: RunUnit) -> dict:
    """The wire-format task dict of one unit (the service protocol shape).

    Exactly the data :func:`repro.service.workers.normalize_task` builds
    a solver and mapping back from — so a unit executed through a
    running service resolves to the very same computation as the local
    :func:`_unit_task` path, and the stores stay byte-identical.
    """
    return {
        "system": unit.system.to_dict(),
        "solver": unit.solver,
        "model": unit.model,
        "options": dict(unit.options),
    }


@dataclass
class CampaignRunSummary:
    """What one :func:`run_campaign` call did.

    ``executed`` counts the units this call scored into the store.
    ``service`` (service runs only) sums the service's per-batch stats:
    how many of those units it actually ran and how many it answered
    from its disk cache or memo.
    """

    campaign: str
    store_path: str
    total: int
    executed: int
    skipped: int
    scenarios: list[str] = field(default_factory=list)
    service: dict[str, int] | None = None

    def render(self) -> str:
        lines = [
            f"campaign   : {self.campaign} "
            f"({self.total} units in {len(self.scenarios)} scenarios)",
            f"store      : {self.store_path}",
            f"executed   : {self.executed}",
            f"skipped    : {self.skipped} (already stored or duplicate)",
        ]
        if self.service is not None:
            disk = self.service.get("disk_hits", 0)
            memo = self.service.get("memo_hits", 0)
            lines.append(
                f"service    : executed {self.service.get('executed', 0)}, "
                f"cache hits {disk + memo} ({disk} disk + {memo} memo)"
            )
        return "\n".join(lines)


def run_campaign(
    spec: CampaignSpec,
    store: ResultStore,
    *,
    n_jobs: int = 1,
    resume: bool = False,
    cache: StructureCache | None = None,
    client: "ServiceClient | None" = None,
    record_request_ids: bool = False,
) -> CampaignRunSummary:
    """Execute every pending unit of ``spec`` into ``store``.

    A populated store is refused unless ``resume=True`` (mirroring the
    ``bench --force`` overwrite guard): resuming skips every unit whose
    fingerprint the store already holds and executes only the rest, so
    a completed campaign re-runs as a no-op.

    With a ``client`` (``campaign run --via-service``), chunks are
    scored by a running :mod:`repro.service` daemon instead of this
    process — same solvers, same pure functions, so the store's bytes
    are identical, but the daemon's warm caches (and its tier-2 disk
    cache) carry across campaigns and process restarts. Units travel in
    chunks of at least 16 (one round trip and one crash-loss bound per
    chunk, batches big enough for the server's pool to fan out); worker
    fan-out belongs to the server, not this process's ``n_jobs``.

    ``record_request_ids=True`` (service runs only) stamps every store
    row with the ``request_id`` of the chunk that scored it, joinable
    against the fleet's flight recorders via ``repro.cli trace``. It is
    opt-in precisely because it breaks the byte-identity guarantee
    above: rows gain a provenance field an in-process run cannot have.
    """
    if record_request_ids and client is None:
        raise CampaignError(
            "record_request_ids needs a service client: trace ids are "
            "minted per request by ServiceClient"
        )
    units = expand(spec)
    if len(store) and not resume:
        raise CampaignError(
            f"store {store.path} already holds {len(store)} result(s); "
            "pass resume=True (--resume) to continue it, or point the "
            "campaign at a fresh store path"
        )
    if cache is None:
        cache = StructureCache()

    # Partition into per-scenario pending lists (store hits and in-batch
    # duplicates skip), then *validate* every pending unit by building
    # its solver and mapping once and discarding them: a spec mistake in
    # the last scenario is reported before the first scenario burns any
    # compute, while peak memory stays O(chunk), not O(campaign).
    skipped = 0
    prepared: list[list[RunUnit]] = []
    for scenario in spec.scenarios:
        scenario_units = [u for u in units if u.scenario == scenario.name]
        in_flight: set[str] = set()
        pending: list[RunUnit] = []
        for unit in scenario_units:
            if unit.fingerprint in store or unit.fingerprint in in_flight:
                skipped += 1
            else:
                in_flight.add(unit.fingerprint)
                pending.append(unit)
        if pending:
            prepared.append(pending)
    for pending in prepared:
        for unit in pending:
            _unit_task(unit)

    executed = 0
    service_stats: dict[str, int] | None = None if client is None else {}
    # One worker pool serves every chunk of the whole campaign — created
    # lazily, so a fully-resumed run (0 pending units) never spawns it.
    # Via a service client, no pool: fan-out is the server's business.
    pool: ProcessPoolExecutor | None = None
    try:
        for pending in prepared:
            # Chunked execution bounds what a crash can lose: serial
            # runs persist after every unit, parallel runs after every
            # chunk (sized to amortize dispatch). Chunks run in
            # deterministic order and the cache memo dedups across them,
            # so chunking never changes the store's bytes. Service
            # chunks are sized for the *server* (one round trip per
            # chunk, batches big enough for its pool to fan out), not
            # for this process's n_jobs.
            if client is not None:
                chunk_size = max(16, 4 * n_jobs)
            else:
                chunk_size = 1 if n_jobs == 1 else 4 * n_jobs
            if n_jobs > 1 and client is None and pool is None:
                pool = ProcessPoolExecutor(max_workers=n_jobs)
            for start in range(0, len(pending), chunk_size):
                chunk = pending[start:start + chunk_size]
                request_id = None
                if client is not None:
                    values, stats = _run_chunk_via_service(chunk, client)
                    request_id = client.last_request_id
                    for key, count in stats.items():
                        service_stats[key] = service_stats.get(key, 0) + count
                else:
                    values = evaluate_tasks(
                        [_unit_task(u) for u in chunk],
                        cache=cache,
                        n_jobs=n_jobs,
                        pool=pool,
                    )
                for unit, value in zip(chunk, values):
                    record = unit_record(unit, value)
                    if record_request_ids and request_id is not None:
                        record["request_id"] = request_id
                    store.append(record)
                    executed += 1
    finally:
        if pool is not None:
            pool.shutdown()
    return CampaignRunSummary(
        campaign=spec.name,
        store_path=str(store.path),
        total=len(units),
        executed=executed,
        skipped=skipped,
        scenarios=[s.name for s in spec.scenarios],
        service=service_stats,
    )


def _run_chunk_via_service(
    chunk: list[RunUnit], client: "ServiceClient"
) -> tuple[list[float], dict[str, int]]:
    """Score one chunk through a running service; failures abort the run.

    Returns the chunk's values and the service's stats for the batch.

    The store only ever holds completed scores, so a unit the service
    could not evaluate (or a dead server, a blown deadline, an
    exhausted retry budget) surfaces as :class:`CampaignError` —
    everything already appended resumes cleanly, exactly like a local
    crash. The client's retry policy has already absorbed transient
    faults by the time an exception reaches this frame. Error messages
    carry the chunk's trace id when one was minted, so a failed chunk
    can be walked through the fleet's flight recorders with
    ``repro.cli trace``.
    """
    def _trace_hint() -> str:
        rid = client.last_request_id
        return f" [request {rid}]" if rid else ""

    try:
        values, failures, stats = client.evaluate_batch(
            [unit_task_payload(u) for u in chunk]
        )
    except ServiceOverloaded as exc:
        raise CampaignError(
            f"service execution failed: server overloaded and retries "
            f"exhausted ({exc}){_trace_hint()}; rerun to resume from the store"
        ) from None
    except ServiceTimeout as exc:
        raise CampaignError(
            f"service execution failed: deadline exceeded "
            f"({exc}){_trace_hint()}; "
            "raise --request-timeout or rerun to resume from the store"
        ) from None
    except ServiceError as exc:
        raise CampaignError(
            f"service execution failed: {exc}{_trace_hint()}"
        ) from None
    if failures:
        first = failures[0]
        unit = chunk[first.get("index", 0)]
        quarantined = sum(
            1 for f in failures if f.get("reason") == "quarantined"
        )
        poison_hint = (
            f" ({quarantined} quarantined as poison after failing on "
            f"distinct workers)" if quarantined else ""
        )
        raise CampaignError(
            f"service failed {len(failures)} unit(s){poison_hint}; "
            f"first: scenario "
            f"{unit.scenario!r} ({first.get('error')}: "
            f"{first.get('message')}){_trace_hint()}"
        )
    if len(values) != len(chunk):
        raise CampaignError(
            f"service returned {len(values)} value(s) for {len(chunk)} unit(s)"
        )
    return values, stats


def _unit_task(unit: RunUnit) -> tuple:
    """The ``(solver, mapping, model)`` evaluation task of one unit.

    Solver-constructor failures (bad option values that name-level
    validation can't see, such as an unknown estimator or law) surface
    as :class:`CampaignError` here, at prepare time, not as a traceback
    mid-run.
    """
    try:
        solver = get_solver(unit.solver, **unit.options)
    except (TypeError, ValueError, InvalidDistributionError) as exc:
        raise CampaignError(
            f"scenario {unit.scenario!r}: cannot configure solver "
            f"{unit.solver!r} with options {unit.options!r}: {exc}"
        ) from None
    return (solver, unit.system.build(), unit.model)


def campaign_status(
    spec: CampaignSpec, store: ResultStore
) -> list[tuple[str, int, int]]:
    """Per-scenario ``(name, completed, total)`` progress against a spec."""
    units = expand(spec)
    rows: list[tuple[str, int, int]] = []
    for scenario in spec.scenarios:
        fingerprints = {
            u.fingerprint for u in units if u.scenario == scenario.name
        }
        done = sum(1 for fp in fingerprints if fp in store)
        rows.append((scenario.name, done, len(fingerprints)))
    return rows


def campaign_report(
    store: ResultStore, *, campaign: str | None = None
) -> list[ExperimentResult]:
    """One :class:`ExperimentResult` table per scenario in the store.

    Rows are sorted by grid parameters (fingerprint as tie-break), so
    the report is identical whatever order the store was filled in — a
    resumed, re-ordered or parallel run reports exactly like the cold
    serial one.
    """
    records = store.records()
    if campaign is not None:
        records = [r for r in records if r.get("campaign") == campaign]
    by_scenario: dict[str, list[dict]] = {}
    for record in records:
        by_scenario.setdefault(record.get("scenario", "?"), []).append(record)
    results: list[ExperimentResult] = []
    for scenario, recs in by_scenario.items():
        # "solver" / "model" axes are already surfaced by the dedicated
        # columns; only the remaining grid parameters get their own.
        param_keys = sorted(
            {k for r in recs for k in r.get("params", {})} - {"solver", "model"}
        )
        # Stochastic units carry a stream seed in their options; surface
        # it so runs of the same scenario under two campaign seeds stay
        # distinguishable row by row.
        show_seed = any("seed" in r.get("options", {}) for r in recs)
        columns = [*param_keys, "solver", "model"]
        if show_seed:
            columns.append("seed")
        columns.append("value")
        campaigns = sorted({r.get("campaign", "?") for r in recs})
        result = ExperimentResult(
            name=scenario,
            description=(
                f"campaign {', '.join(campaigns)}: {len(recs)} completed unit(s)"
            ),
            columns=columns,
        )
        def value_key(v: object) -> tuple:
            # Numbers sort numerically, everything else lexically —
            # n_datasets = [100, 500, 1000], not [100, 1000, 500].
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                return (1, repr(v))
            return (0, float(v))

        def sort_key(r: dict, keys=tuple(param_keys)) -> tuple:
            params = r.get("params", {})
            return (
                [value_key(params.get(k)) for k in keys],
                r.get("solver", ""),
                r.get("model", ""),
                repr(r.get("options", {}).get("seed", "")),
                r["fingerprint"],
            )

        for record in sorted(recs, key=sort_key):
            row = {k: record.get("params", {}).get(k, "") for k in param_keys}
            row["solver"] = record.get("solver", "")
            row["model"] = record.get("model", "")
            if show_seed:
                row["seed"] = record.get("options", {}).get("seed", "")
            row["value"] = record.get("value", "")
            result.rows.append(row)
        results.append(result)
    return results
