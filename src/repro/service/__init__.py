"""Long-lived throughput-evaluation service (daemon + client, stdlib-only).

PRs 1-3 made the throughput oracle fast, uniform and scriptable; this
subsystem makes it *resident*. A ``repro.cli serve`` process keeps the
expensive state alive between requests and answers JSON-framed queries
over a loopback socket:

* :mod:`repro.service.protocol` — newline-delimited JSON framing, and
  the task memo keyed by a task's frame text, through which each role
  resolves a distinct task once;
* :mod:`repro.service.diskcache` — tier-2 persistent score cache
  (fingerprint-keyed JSONL on the campaign store's crash-safe
  machinery), so a *restarted* server still answers repeat queries
  without recomputation;
* :mod:`repro.service.queue` — single-flight coalescing: N identical
  concurrent requests cost one evaluator run and get N replies;
* :mod:`repro.service.workers` — the :class:`EvaluationEngine`: one
  long-lived (optionally LRU-bounded) :class:`StructureCache`, one
  persistent process pool with crash recovery (bounded restart budget,
  degrade-to-serial past it), per-task failure isolation;
* :mod:`repro.service.faults` — deterministic counted fault injection
  (dropped replies, delays, worker crashes, torn cache tails) behind
  the chaos tests and ``repro.cli serve --faults``;
* :mod:`repro.service.host` — the loopback server both roles run on:
  the frame loop, bounded admission with load shedding and
  ``retry_after``, dispatch through a role's ops table, graceful drain;
* :mod:`repro.service.server` / :mod:`repro.service.client` — the
  worker role and the client library (per-request deadlines, retry
  with exponential backoff) behind ``repro.cli
  serve/submit/ping/stats/shutdown`` and ``campaign run
  --via-service``;
* :mod:`repro.service.catalog` / :mod:`repro.service.routing` /
  :mod:`repro.service.orchestrator` / :mod:`repro.service.fleet` — the
  fleet tier: a worker registry with per-worker circuit breakers
  (closed → open → half-open, escalating cooldowns, probation after
  recovery), rendezvous (HRW) placement of each task on the worker
  ranked first for its structure fingerprint, an orchestrator speaking
  the *same* protocol that shards batches across workers (an
  ``evaluate`` is a one-task batch), fails over when one dies
  mid-request, quarantines poison units after they fail
  on distinct workers, and aggregates fleet statistics, plus a
  :class:`FleetSupervisor` that respawns dead worker processes
  (bounded budget, exponential backoff) and re-announces them for a
  half-open probe — behind ``repro.cli serve --role orchestrator`` and
  ``repro.cli fleet --supervise``.

Observability (see :mod:`repro.telemetry`): every frame may carry a
``request_id`` trace token (minted by :class:`ServiceClient`, forwarded
into sub-batches and failover re-dispatches), every tier registers into
a process-local metrics registry exposed by the ``metrics`` op (JSON +
Prometheus text, fleet-merged on the orchestrator), and servers can log
one JSONL event per request/hop to a crash-safe flight recorder that
``repro.cli trace`` joins across files.
"""

from repro.service.catalog import WorkerCatalog, WorkerInfo
from repro.service.client import RetryPolicy, ServiceClient, wait_for_service
from repro.service.diskcache import DiskScoreCache, score_digest
from repro.service.faults import FaultInjector
from repro.service.fleet import (
    FleetSupervisor,
    LocalFleet,
    local_fleet,
    spawn_worker,
    wait_for_ready_file,
)
from repro.service.orchestrator import (
    OrchestratorServer,
    serve_orchestrator_in_thread,
)
from repro.service.protocol import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    parse_endpoint,
    parse_endpoints,
    publish_ready_file,
)
from repro.service.queue import CoalescingQueue
from repro.service.routing import task_routing_key
from repro.service.server import ServiceServer, serve_in_thread
from repro.service.workers import EvaluationEngine, normalize_task

__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "CoalescingQueue",
    "DiskScoreCache",
    "EvaluationEngine",
    "FaultInjector",
    "FleetSupervisor",
    "LocalFleet",
    "OrchestratorServer",
    "RetryPolicy",
    "ServiceClient",
    "ServiceServer",
    "WorkerCatalog",
    "WorkerInfo",
    "local_fleet",
    "normalize_task",
    "parse_endpoint",
    "parse_endpoints",
    "publish_ready_file",
    "score_digest",
    "serve_in_thread",
    "serve_orchestrator_in_thread",
    "spawn_worker",
    "task_routing_key",
    "wait_for_ready_file",
    "wait_for_service",
]
