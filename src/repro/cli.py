"""Command-line driver for the experiments, solvers, campaigns and service.

Usage::

    python -m repro.cli list
    python -m repro.cli run fig13
    python -m repro.cli run all --scale 0.1
    python -m repro.cli solve example_a --solver bounds --model strict
    python -m repro.cli search --solver deterministic --restarts 5 --n-jobs 4
    python -m repro.cli campaign run --preset smoke --store campaign.jsonl
    python -m repro.cli campaign run --spec my_campaign.json --store c.jsonl \
        --n-jobs 4 --resume
    python -m repro.cli campaign run --preset fig13 --store f13.jsonl \
        --via-service 127.0.0.1:7781
    python -m repro.cli campaign status --preset smoke --store campaign.jsonl
    python -m repro.cli campaign report --store campaign.jsonl
    python -m repro.cli serve --port 7781 --cache service_cache.jsonl
    python -m repro.cli serve --port 7781 --capacity 8 --retry-after 0.5
    python -m repro.cli serve --port 7781 --faults drop:2,crash:1   # chaos
    python -m repro.cli serve --port 7781 --recorder flight.jsonl \
        --slow-threshold 0.5
    python -m repro.cli serve --role orchestrator --port 7790 \
        --workers 127.0.0.1:7781,127.0.0.1:7782
    python -m repro.cli fleet --n-workers 4 --port 7790 --max-entries 64
    python -m repro.cli fleet --n-workers 2 --recorder-dir flight/
    python -m repro.cli submit --port 7781 --preset smoke
    python -m repro.cli ping --port 7781
    python -m repro.cli stats --port 7781
    python -m repro.cli stats --port 7790 --watch --interval 2
    python -m repro.cli metrics --port 7790             # Prometheus text
    python -m repro.cli metrics --port 7790 --json      # raw snapshot
    python -m repro.cli trace 1f2e3d4c5b6a7988 --recorder-dir flight/
    python -m repro.cli shutdown --port 7781

Exit-code contract of the service probes (for CI and operators):
``ping``/``stats``/``metrics`` exit 0 when a server answers on the
endpoint and 1 when none does; ``submit`` exits 0 when every unit
scored and 1 when any failed; ``shutdown`` exits 0 once the server
acknowledged, 1 if unreachable; ``trace`` exits 0 when the request id
was found in at least one recorder file and 1 otherwise.

Global flags: ``-v``/``--verbose`` (repeatable: INFO, then DEBUG) and
``--log-json`` (one JSON object per log line) configure the ``repro``
logger tree before the subcommand runs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys


def _scaled_config(name: str, module, scale: float):
    """Best-effort scaled-down configuration per experiment."""
    if scale >= 1.0:
        return None
    if name == "table1":
        return module.scaled_config(scale)
    cfg = None
    cfg_cls = getattr(module, f"{name.capitalize()}Config", None)
    if cfg_cls is None:
        return None
    cfg = cfg_cls()
    for attr in ("n_datasets", "tpn_datasets", "n_replications"):
        if hasattr(cfg, attr):
            setattr(cfg, attr, max(200, int(getattr(cfg, attr) * scale)))
    for attr in ("dataset_counts",):
        if hasattr(cfg, attr):
            counts = [max(10, int(k * scale)) for k in getattr(cfg, attr)]
            setattr(cfg, attr, sorted(set(counts)))
    if hasattr(cfg, "include_exp_theory") and scale < 0.5:
        cfg.include_exp_theory = False
    return cfg


def _system_choices() -> tuple[str, ...]:
    from repro.mapping.examples import NAMED_SYSTEMS

    return tuple(sorted(NAMED_SYSTEMS))


def _cmd_solve(args, parser) -> int:
    from repro.evaluate import StructureCache, evaluate, get_solver
    from repro.mapping.examples import named_system

    mapping = named_system(args.system)
    if args.solver == "simulation":
        options = {"n_datasets": args.n_datasets, "seed": args.sim_seed}
    else:
        options = {"max_states": args.max_states, "semantics": args.semantics}
    cache = StructureCache()
    if args.solver == "bounds":
        bounds = get_solver("bounds", **options).bounds(
            mapping, args.model, cache=cache
        )
        print(f"system     : {args.system}  {mapping!r}")
        print(f"model      : {args.model}")
        print(f"lower (exp): {bounds.lower:.6g}")
        print(f"upper (cst): {bounds.upper:.6g}")
        print(f"width      : {bounds.width:.6g}")
        return 0
    rho = evaluate(
        mapping, solver=args.solver, model=args.model, cache=cache, **options
    )
    print(f"system     : {args.system}  {mapping!r}")
    print(f"model      : {args.model}")
    print(f"solver     : {args.solver}")
    print(f"throughput : {rho:.6g}")
    return 0


def _cmd_search(args, parser) -> int:
    import numpy as np

    from repro.application.chain import Application
    from repro.evaluate import StructureCache
    from repro.mapping.heuristics import random_restart_search
    from repro.platform.topology import Platform

    rng = np.random.default_rng(args.seed)
    app = Application.from_work(
        rng.uniform(1.0, 8.0, args.stages).tolist(),
        rng.uniform(0.1, 0.5, args.stages - 1).tolist(),
    )
    platform = Platform.from_speeds(
        rng.uniform(1.0, 3.0, args.processors).tolist(), bandwidth=5.0
    )
    cache = StructureCache()
    result = random_restart_search(
        app,
        platform,
        mode=args.solver,
        n_restarts=args.restarts,
        seed=args.seed,
        n_jobs=args.n_jobs,
        cache=cache,
    )
    print(f"instance   : N={args.stages} stages on M={args.processors} "
          f"processors (seed {args.seed})")
    print(f"solver     : {args.solver}")
    print(f"best       : {result.throughput:.6g}  {result.mapping!r}")
    print(f"teams      : {[list(t) for t in result.mapping.teams]}")
    print(f"evaluations: {result.evaluations} requests = "
          f"{result.cache_misses} solver runs + {result.cache_hits} cache hits")
    return 0


#: Units per `submit` protocol frame — far below the 32 MB frame
#: ceiling whatever the spec size.
_SUBMIT_CHUNK = 256


def _make_recorder(args, parser):
    """Build the serve command's optional flight recorder from its flags."""
    if args.slow_threshold is not None and args.slow_threshold <= 0:
        parser.error("--slow-threshold must be > 0")
    if args.recorder_max_bytes < 4096:
        parser.error("--recorder-max-bytes must be >= 4096")
    if not args.recorder:
        if args.slow_threshold is not None:
            parser.error("--slow-threshold requires --recorder")
        return None
    from repro.telemetry import FlightRecorder

    try:
        return FlightRecorder(
            args.recorder,
            max_bytes=args.recorder_max_bytes,
            slow_threshold_s=args.slow_threshold,
        )
    except OSError as exc:
        parser.error(f"cannot open --recorder {args.recorder}: {exc}")


def _orchestrator_catalog(args, parser):
    """The empty worker catalog the shared orchestrator flags configure.

    ``serve --role orchestrator`` and ``fleet`` share these flags; a bad
    value exits through ``parser.error``.
    """
    from repro.service import WorkerCatalog

    if args.max_worker_failures < 1:
        parser.error("--max-worker-failures must be >= 1")
    if args.ping_interval is not None and args.ping_interval <= 0:
        parser.error("--ping-interval must be > 0")
    if args.breaker_cooldown < 0:
        parser.error("--breaker-cooldown must be >= 0")
    if args.max_unit_attempts < 1:
        parser.error("--max-unit-attempts must be >= 1")
    return WorkerCatalog(
        max_consecutive_failures=args.max_worker_failures,
        breaker_cooldown_s=args.breaker_cooldown,
    )


def _orchestrator_server(args, catalog, *, retry, recorder):
    """The ``OrchestratorServer`` the orchestrator flags describe."""
    from repro.service import OrchestratorServer

    return OrchestratorServer(
        catalog,
        strategy=args.strategy,
        host=args.host,
        port=args.port,
        retry=retry,
        ping_interval=args.ping_interval,
        max_unit_attempts=args.max_unit_attempts,
        recorder=recorder,
    )


def _announce_orchestrator(args, server) -> None:
    """Publish the ready file and print the orchestrator's banner."""
    host, port = server.endpoint
    if args.ready_file:
        server.write_ready_file(args.ready_file)
    print(f"serving    : {host}:{port} (orchestrator)")
    print(f"strategy   : {args.strategy}")
    print("workers    : " + ", ".join(
        f"{w.name}={w.endpoint}" for w in server.catalog.workers()
    ))


def _serve_until_shutdown(server, *resources) -> int:
    """Serve until a ``shutdown`` op (or Ctrl-C), drain, close ``resources``.

    A shutdown from one client must not discard another client's
    mid-evaluation batch: dispatched requests finish and reply before
    the process exits (idle connections don't block it).
    """
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        server.server_close()
        server.wait_for_inflight(timeout=600.0)
        for resource in resources:
            if resource is not None:
                resource.close()
    print("stopped")
    return 0


def _cmd_serve_orchestrator(args, parser) -> int:
    from repro.exceptions import ServiceError
    from repro.service import RetryPolicy, parse_endpoints

    if not args.workers:
        parser.error("--role orchestrator requires --workers HOST:PORT,...")
    if args.failover_sweeps < 1:
        parser.error("--failover-sweeps must be >= 1")
    catalog = _orchestrator_catalog(args, parser)
    try:
        endpoints = parse_endpoints(args.workers)
    except ServiceError as exc:
        parser.error(str(exc))
    for worker_host, worker_port in endpoints:
        catalog.register(worker_host, worker_port)
    retry = (
        RetryPolicy(max_attempts=args.failover_sweeps)
        if args.failover_sweeps > 1 else None
    )
    recorder = _make_recorder(args, parser)
    try:
        server = _orchestrator_server(args, catalog, retry=retry, recorder=recorder)
    except OSError as exc:
        parser.error(f"cannot bind {args.host}:{args.port}: {exc}")
    except ServiceError as exc:
        parser.error(str(exc))
    _announce_orchestrator(args, server)
    if recorder is not None:
        print(f"recorder   : {args.recorder}")
    sys.stdout.flush()
    return _serve_until_shutdown(server, recorder)


def _cmd_serve(args, parser) -> int:
    from repro.exceptions import ServiceError
    from repro.service import (
        DiskScoreCache,
        EvaluationEngine,
        FaultInjector,
        ServiceServer,
    )

    if args.role == "orchestrator":
        return _cmd_serve_orchestrator(args, parser)
    if args.workers:
        parser.error("--workers only applies to --role orchestrator")
    if args.n_jobs < 1:
        parser.error("--n-jobs must be >= 1")
    if args.max_entries is not None and args.max_entries < 1:
        parser.error("--max-entries must be >= 1")
    if args.capacity is not None and args.capacity < 1:
        parser.error("--capacity must be >= 1")
    if args.retry_after <= 0:
        parser.error("--retry-after must be > 0")
    if args.max_pool_restarts < 0:
        parser.error("--max-pool-restarts must be >= 0")
    try:
        if args.faults:
            faults = FaultInjector.from_spec(args.faults)
        else:
            faults = FaultInjector.from_env()
    except ServiceError as exc:
        parser.error(str(exc))
    disk = None
    if args.cache:
        from repro.exceptions import CampaignError

        try:
            disk = DiskScoreCache(args.cache)
        except (CampaignError, OSError) as exc:
            parser.error(str(exc))
    recorder = _make_recorder(args, parser)
    engine = EvaluationEngine(
        n_jobs=args.n_jobs,
        disk=disk,
        max_entries=args.max_entries,
        max_pool_restarts=args.max_pool_restarts,
        faults=faults,
    )
    try:
        server = ServiceServer(
            engine,
            host=args.host,
            port=args.port,
            capacity=args.capacity,
            retry_after=args.retry_after,
            faults=faults,
            recorder=recorder,
        )
    except OSError as exc:
        parser.error(f"cannot bind {args.host}:{args.port}: {exc}")
    host, port = server.endpoint
    if args.ready_file:
        server.write_ready_file(args.ready_file)
    print(f"serving    : {host}:{port}")
    print(f"cache      : {args.cache or '(memory only)'}")
    print(f"n-jobs     : {args.n_jobs}")
    print(f"capacity   : {args.capacity or '(unbounded)'}")
    if faults is not None:
        print(f"faults     : {faults!r}")
    if recorder is not None:
        print(f"recorder   : {args.recorder}")
    sys.stdout.flush()
    return _serve_until_shutdown(server, engine, recorder)


def _parse_fleet_faults(spec: str, n_workers: int) -> dict[int, str]:
    """Expand a ``fleet --faults`` value into ``{worker index: spec}``.

    Two shapes: a plain injector spec (``"drop:1"``) arms every worker
    identically, and per-index clauses (``"0=crash:1;2=hang:1:5"``) arm
    only the named workers. Each sub-spec is validated eagerly via
    :meth:`FaultInjector.from_spec`, so a bad clause fails the command
    instead of a worker at startup.
    """
    from repro.exceptions import ServiceError
    from repro.service import FaultInjector

    plans: dict[int, str] = {}
    if "=" in spec:
        clauses: dict[int, str] = {}
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            index_text, _, sub_spec = clause.partition("=")
            try:
                index = int(index_text)
            except ValueError:
                raise ServiceError(
                    f"invalid fleet fault clause {clause!r}: "
                    f"{index_text!r} is not a worker index"
                ) from None
            if not 0 <= index < n_workers:
                raise ServiceError(
                    f"invalid fleet fault clause {clause!r}: worker index "
                    f"{index} out of range for {n_workers} worker(s)"
                )
            if index in clauses:
                raise ServiceError(
                    f"duplicate fleet fault clauses {clauses[index]!r} and "
                    f"{clause!r} both arm worker {index}"
                )
            clauses[index] = clause
            plans[index] = sub_spec
    else:
        plans = {index: spec for index in range(n_workers)}
    for sub_spec in plans.values():
        FaultInjector.from_spec(sub_spec)  # validate eagerly
    return plans


def _cmd_fleet(args, parser) -> int:
    import tempfile

    from repro.exceptions import ServiceError
    from repro.service import (
        FleetSupervisor,
        RetryPolicy,
        spawn_worker,
        wait_for_ready_file,
    )

    if args.n_workers < 1:
        parser.error("--n-workers must be >= 1")
    if args.worker_n_jobs < 1:
        parser.error("--worker-n-jobs must be >= 1")
    if args.max_entries is not None and args.max_entries < 1:
        parser.error("--max-entries must be >= 1")
    if args.capacity is not None and args.capacity < 1:
        parser.error("--capacity must be >= 1")
    if args.max_pool_restarts is not None and args.max_pool_restarts < 0:
        parser.error("--max-pool-restarts must be >= 0")
    if args.slow_threshold is not None and args.slow_threshold <= 0:
        parser.error("--slow-threshold must be > 0")
    if args.slow_threshold is not None and not args.recorder_dir:
        parser.error("--slow-threshold requires --recorder-dir")
    if args.max_worker_restarts < 0:
        parser.error("--max-worker-restarts must be >= 0")
    if args.supervisor_interval <= 0:
        parser.error("--supervisor-interval must be > 0")
    catalog = _orchestrator_catalog(args, parser)
    fault_plans: dict[int, str] = {}
    if args.faults:
        try:
            fault_plans = _parse_fleet_faults(args.faults, args.n_workers)
        except ServiceError as exc:
            parser.error(str(exc))
    if args.cache_dir:
        try:
            os.makedirs(args.cache_dir, exist_ok=True)
        except OSError as exc:
            parser.error(f"cannot create --cache-dir {args.cache_dir}: {exc}")
    recorder = None
    if args.recorder_dir:
        from repro.telemetry import FlightRecorder

        try:
            os.makedirs(args.recorder_dir, exist_ok=True)
            recorder = FlightRecorder(
                os.path.join(args.recorder_dir, "orchestrator.jsonl")
            )
        except OSError as exc:
            parser.error(
                f"cannot create --recorder-dir {args.recorder_dir}: {exc}"
            )

    def worker_spawn_kwargs(index: int) -> dict:
        return dict(
            n_jobs=args.worker_n_jobs,
            max_entries=args.max_entries,
            cache=(
                os.path.join(args.cache_dir, f"worker{index}.jsonl")
                if args.cache_dir else None
            ),
            capacity=args.capacity,
            max_pool_restarts=args.max_pool_restarts,
            slow_threshold=args.slow_threshold,
            recorder=(
                os.path.join(args.recorder_dir, f"w{index}.jsonl")
                if args.recorder_dir else None
            ),
        )

    procs: dict[int, subprocess.Popen] = {}
    respawn_seq: dict[int, int] = {}
    server = None
    supervisor = None
    exit_code = 0
    # The temp dir holds the ready-file handshakes — including the ones
    # respawned workers publish mid-flight — so it lives as long as the
    # fleet does.
    with tempfile.TemporaryDirectory(prefix="repro-fleet-") as tmp:
        try:
            for index in range(args.n_workers):
                ready = os.path.join(tmp, f"worker{index}.json")
                procs[index] = spawn_worker(
                    ready,
                    faults=fault_plans.get(index),
                    **worker_spawn_kwargs(index),
                )
            try:
                for index in range(args.n_workers):
                    ready = os.path.join(tmp, f"worker{index}.json")
                    worker_host, worker_port = wait_for_ready_file(
                        ready,
                        timeout=args.startup_timeout,
                        process=procs[index],
                    )
                    catalog.register(
                        worker_host, worker_port,
                        name=f"w{index}", capacity=args.capacity,
                    )
            except ServiceError as exc:
                print(f"fleet startup failed: {exc}", file=sys.stderr)
                return 1
            try:
                server = _orchestrator_server(
                    args, catalog, retry=RetryPolicy(), recorder=recorder
                )
            except OSError as exc:
                print(
                    f"cannot bind {args.host}:{args.port}: {exc}",
                    file=sys.stderr,
                )
                return 1
            if args.supervise:
                def make_respawn(index: int):
                    def respawn() -> tuple[str, int]:
                        old = procs.get(index)
                        if old is not None and old.poll() is not None:
                            old.wait()  # reap the corpse
                        info = catalog.get(f"w{index}")
                        respawn_seq[index] = respawn_seq.get(index, 0) + 1
                        ready = os.path.join(
                            tmp,
                            f"worker{index}.respawn{respawn_seq[index]}.json",
                        )
                        # Prefer the registered port so the worker's
                        # rendezvous shard flows straight back; fall back
                        # to an ephemeral port if it is still held.
                        proc = spawn_worker(
                            ready, port=info.port, **worker_spawn_kwargs(index)
                        )
                        try:
                            endpoint = wait_for_ready_file(
                                ready,
                                timeout=args.startup_timeout,
                                process=proc,
                            )
                        except ServiceError:
                            if proc.poll() is None:
                                proc.kill()
                            proc.wait()
                            ready = ready + ".ephemeral"
                            proc = spawn_worker(
                                ready, port=0, **worker_spawn_kwargs(index)
                            )
                            endpoint = wait_for_ready_file(
                                ready,
                                timeout=args.startup_timeout,
                                process=proc,
                            )
                        procs[index] = proc
                        return endpoint

                    return respawn

                supervisor = FleetSupervisor(
                    catalog,
                    check_interval=args.supervisor_interval,
                    max_restarts=args.max_worker_restarts,
                )
                for index in range(args.n_workers):
                    supervisor.watch(
                        f"w{index}",
                        is_alive=lambda i=index: procs[i].poll() is None,
                        respawn=make_respawn(index),
                    )
                server.supervisor = supervisor
                supervisor.start()
            _announce_orchestrator(args, server)
            if args.supervise:
                print(
                    f"supervisor : every {args.supervisor_interval}s, "
                    f"budget {args.max_worker_restarts} restarts/worker"
                )
            if args.recorder_dir:
                print(f"recorders  : {args.recorder_dir}")
            sys.stdout.flush()
            try:
                server.serve_forever()
            except KeyboardInterrupt:  # pragma: no cover - interactive only
                pass
        finally:
            if supervisor is not None:
                supervisor.stop()
            if server is not None:
                server.server_close()
                server.wait_for_inflight(timeout=600.0)
                # The fleet owns its workers: ask each daemon to stop,
                # then reap the subprocesses (hard-kill only the
                # unresponsive).
                server.stop_workers()
            if recorder is not None:
                recorder.close()
            for proc in procs.values():
                try:
                    proc.wait(timeout=10.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=10.0)
                    exit_code = 1
    print("stopped")
    return exit_code


def _service_client(args):
    from repro.service import RetryPolicy, ServiceClient

    retries = getattr(args, "retries", 1)
    return ServiceClient(
        args.host,
        args.port,
        connect_timeout=args.timeout,
        timeout=getattr(args, "request_timeout", None),
        retry=RetryPolicy(max_attempts=retries) if retries > 1 else None,
    )


def _cmd_ping(args, parser) -> int:
    from repro.exceptions import ServiceError

    try:
        with _service_client(args) as client:
            reply = client.ping()
    except ServiceError as exc:
        print(f"ping failed: {exc}", file=sys.stderr)
        return 1
    if args.json:
        # Pure-JSON mode: nothing else on stdout, pipeable to jq.
        payload = {
            "version": reply["version"],
            "uptime_s": reply["uptime_s"],
            "in_flight": reply["in_flight"],
            "counters": reply["counters"],
        }
        for key in ("role", "strategy", "workers"):
            if key in reply:
                payload[key] = reply[key]
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"service    : {args.host}:{args.port}")
    print(f"version    : {reply['version']}")
    uptime = reply.get("uptime_s")
    if uptime is not None:
        print(f"uptime     : {uptime:.1f}s, {reply.get('in_flight')} in flight")
    counters = reply["counters"]
    if counters is None and reply.get("role") == "orchestrator":
        # An orchestrator has no engine of its own: its ping carries the
        # fleet summary instead of evaluator counters ('stats' has the
        # per-worker breakdown).
        workers = reply.get("workers") or {}
        print(f"role       : orchestrator ({reply.get('strategy')})")
        print(
            f"workers    : {workers.get('live', 0)}/{workers.get('total', 0)} "
            "live"
        )
        return 0
    totals = counters["requests"]
    cache = counters["structure_cache"]
    queue = counters["queue"]
    print(
        f"requests   : {totals['batches']} batches, {totals['units']} units, "
        f"{totals['failures']} failures"
    )
    print(
        f"evaluator  : {totals['executed']} runs, "
        f"{totals['disk_hits']} disk hits, {totals['memo_hits']} memo hits, "
        f"{queue['coalesced']} coalesced"
    )
    print(
        f"memo       : {cache['hits']} hits / {cache['misses']} misses, "
        f"{cache['evictions']} evictions "
        f"({cache['scores']} scores, {cache['nets']} nets, "
        f"{cache['reachability']} reach)"
    )
    disk = counters.get("disk_cache")
    if disk:
        print(
            f"disk cache : {disk['entries']} entries, {disk['hits']} hits, "
            f"{disk['dropped_lines']} dropped lines"
        )
    pool = counters.get("pool")
    if pool:
        degraded = ", DEGRADED to serial" if pool.get("degraded") else ""
        print(
            f"pool       : {pool['n_jobs']} jobs, "
            f"{pool['restarts']}/{pool['max_restarts']} restarts{degraded}"
        )
    return 0


def _render_fleet_stats(stats: dict) -> None:
    """Per-worker table of an orchestrator's aggregated ``stats`` reply."""
    orch = stats.get("orchestrator") or {}
    totals = stats.get("totals") or {}
    cache = stats.get("structure_cache") or {}
    print(
        f"orchestrator: strategy={stats.get('strategy')}, "
        f"{orch.get('requests', 0)} requests, {orch.get('batches', 0)} "
        f"batches, {orch.get('units', 0)} units, "
        f"{orch.get('failovers', 0)} failovers, "
        f"{orch.get('quarantined', 0)} quarantined"
    )
    supervisor = stats.get("supervisor")
    if supervisor:
        abandoned = sum(
            1 for w in supervisor.get("workers") or [] if w.get("abandoned")
        )
        print(
            f"supervisor  : {supervisor.get('respawns', 0)} respawns "
            f"(budget {supervisor.get('max_restarts', 0)}/worker, "
            f"{abandoned} abandoned)"
        )
    print(
        f"fleet totals: {totals.get('units', 0)} units, "
        f"{totals.get('executed', 0)} executed, "
        f"{totals.get('disk_hits', 0)} disk hits, "
        f"{totals.get('memo_hits', 0)} memo hits, "
        f"{totals.get('failures', 0)} failures"
    )
    print(
        f"structure cache: {cache.get('hits', 0)} hits / "
        f"{cache.get('misses', 0)} misses "
        f"(hit rate {cache.get('hit_rate', 0.0):.1%}, "
        f"{cache.get('evictions', 0)} evictions)"
    )
    print(
        f"{'worker':8s} {'endpoint':22s} {'breaker':9s} {'inflt':>5s} "
        f"{'routed':>6s} {'failov':>6s} {'trips':>5s} {'units':>8s} "
        f"{'executed':>8s}"
    )
    for row in stats.get("workers") or []:
        reported = row.get("reported") or {}
        requests = reported.get("requests") or {}
        units = requests.get("units", "-")
        executed = requests.get("executed", "-")
        breaker = (row.get("breaker") or {}).get("state") or (
            "closed" if row.get("live") else "open"
        )
        print(
            f"{row.get('name', '?'):8s} {row.get('endpoint', '?'):22s} "
            f"{breaker:9s} "
            f"{row.get('in_flight', 0):>5d} {row.get('routed', 0):>6d} "
            f"{row.get('failovers', 0):>6d} {row.get('evictions', 0):>5d} "
            f"{units!s:>8s} {executed!s:>8s}"
        )


def _cmd_stats(args, parser) -> int:
    import time

    from repro.exceptions import ServiceError

    if args.interval <= 0:
        parser.error("--interval must be > 0")
    if args.count is not None and args.count < 1:
        parser.error("--count must be >= 1")
    rounds = (args.count or (2 ** 31)) if args.watch else 1
    for round_index in range(rounds):
        if round_index:
            try:
                time.sleep(args.interval)
            except KeyboardInterrupt:  # pragma: no cover - interactive only
                return 0
            print()
        try:
            with _service_client(args) as client:
                stats = client.stats()
        except ServiceError as exc:
            print(f"stats failed: {exc}", file=sys.stderr)
            return 1
        if stats.get("role") == "orchestrator" and not args.json:
            # The fleet view gets an operator table; --json restores the
            # raw aggregate for jq/grep consumers.
            _render_fleet_stats(stats)
        else:
            # Worker daemons always dump pure JSON: this is the
            # operator/CI introspection surface, meant for jq/grep
            # (admission depth, shed count, pool restarts).
            print(json.dumps(stats, indent=2, sort_keys=True))
        sys.stdout.flush()
    return 0


def _cmd_metrics(args, parser) -> int:
    from repro.exceptions import ServiceError

    try:
        with _service_client(args) as client:
            reply = client.metrics()
    except ServiceError as exc:
        print(f"metrics failed: {exc}", file=sys.stderr)
        return 1
    if args.json:
        # Pure-JSON mode: the merged snapshot, pipeable to jq.
        payload = {
            "role": reply.get("role"),
            "version": reply.get("version"),
            "metrics": reply.get("metrics") or {},
        }
        if "workers_reporting" in reply:
            payload["workers_reporting"] = reply["workers_reporting"]
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    # Default: Prometheus text exposition, scrapeable as-is.
    print(reply.get("exposition", ""), end="")
    return 0


def _render_top(stats: dict, metrics: dict, prof: dict, *, top_k: int) -> None:
    """One dashboard frame: totals, workers, latency, hottest phases."""
    from repro.telemetry.profile import flatten_phases

    role = stats.get("role", "worker")
    uptime = stats.get("uptime_s")
    line = f"repro top — {role}"
    if isinstance(uptime, (int, float)):
        line += f", up {uptime:.0f}s"
    line += f", in-flight {stats.get('in_flight', 0)}"
    print(line)

    if role == "orchestrator":
        totals = stats.get("totals") or {}
        cache = stats.get("structure_cache") or {}
        hit_rate = cache.get("hit_rate", 0.0)
        orch = stats.get("orchestrator") or {}
        supervisor = stats.get("supervisor") or {}
        print(
            f"fleet: {totals.get('units', 0)} units, "
            f"{totals.get('executed', 0)} executed, "
            f"{totals.get('disk_hits', 0)} disk hits, "
            f"{totals.get('memo_hits', 0)} memo hits, "
            f"{totals.get('failures', 0)} failures"
        )
        print(
            f"health: {orch.get('failovers', 0)} failovers, "
            f"{orch.get('quarantined', 0)} quarantined, "
            f"{supervisor.get('respawns', 0)} respawns"
        )
        print(
            f"cache: hit rate {hit_rate:.1%} ({cache.get('hits', 0)} hits / "
            f"{cache.get('misses', 0)} misses, "
            f"{cache.get('evictions', 0)} evictions)"
        )
        rows = stats.get("workers") or []
        if rows:
            print(
                f"{'worker':8s} {'breaker':9s} {'inflt':>5s} {'routed':>6s} "
                f"{'failov':>6s} {'units':>8s} {'executed':>8s}"
            )
        for row in rows:
            reported = row.get("reported") or {}
            requests = reported.get("requests") or {}
            breaker = (row.get("breaker") or {}).get("state") or (
                "closed" if row.get("live") else "open"
            )
            print(
                f"{row.get('name', '?'):8s} "
                f"{breaker:9s} "
                f"{row.get('in_flight', 0):>5d} {row.get('routed', 0):>6d} "
                f"{row.get('failovers', 0):>6d} "
                f"{requests.get('units', '-')!s:>8s} "
                f"{requests.get('executed', '-')!s:>8s}"
            )
    else:
        counters = stats.get("counters") or {}
        requests = counters.get("requests") or {}
        cache = counters.get("structure_cache") or {}
        cache_requests = cache.get("requests", 0)
        hit_rate = cache.get("hits", 0) / cache_requests if cache_requests else 0.0
        print(
            f"worker: {requests.get('units', 0)} units, "
            f"{requests.get('executed', 0)} executed, "
            f"{requests.get('disk_hits', 0)} disk hits, "
            f"{requests.get('memo_hits', 0)} memo hits, "
            f"{requests.get('failures', 0)} failures, "
            f"shed {stats.get('shed', 0)}"
        )
        print(
            f"cache: hit rate {hit_rate:.1%} ({cache.get('hits', 0)} hits / "
            f"{cache.get('misses', 0)} misses, "
            f"{cache.get('evictions', 0)} evictions)"
        )

    shown_latency = False
    for name in (
        "repro_orchestrator_request_seconds",
        "repro_engine_batch_seconds",
    ):
        entry = metrics.get(name)
        if not isinstance(entry, dict) or not entry.get("count"):
            continue
        if not shown_latency:
            print()
            shown_latency = True
        print(
            f"{name}: n={entry['count']} "
            f"p50={entry.get('p50', 0.0) * 1e3:.1f}ms "
            f"p95={entry.get('p95', 0.0) * 1e3:.1f}ms "
            f"p99={entry.get('p99', 0.0) * 1e3:.1f}ms"
        )

    rows = list(flatten_phases((prof.get("profile") or {}).get("phases") or {}))
    rows.extend(
        (f"orch/{path}", node)
        for path, node in flatten_phases(
            (prof.get("orchestrator") or {}).get("phases") or {}
        )
    )
    rows.sort(key=lambda r: (-r[1].get("self_s", 0.0), r[0]))
    if rows:
        print()
        print(
            f"{'hottest phases':34s} {'calls':>8s} {'total_s':>11s} "
            f"{'self_s':>11s}"
        )
        for path, node in rows[:top_k]:
            print(
                f"{path:34s} {node.get('calls', 0):>8d} "
                f"{node.get('total_s', 0.0):>11.6f} "
                f"{node.get('self_s', 0.0):>11.6f}"
            )


def _cmd_top(args, parser) -> int:
    import time

    from repro.exceptions import ServiceError

    if args.interval <= 0:
        parser.error("--interval must be > 0")
    if args.count is not None and args.count < 1:
        parser.error("--count must be >= 1")
    if args.top < 1:
        parser.error("--top must be >= 1")
    rounds = args.count if args.count is not None else (2 ** 31)
    for round_index in range(rounds):
        if round_index:
            try:
                time.sleep(args.interval)
            except KeyboardInterrupt:  # pragma: no cover - interactive only
                return 0
        try:
            with _service_client(args) as client:
                stats = client.stats()
                metrics = client.metrics()
                prof = client.profile()
        except ServiceError as exc:
            print(f"top failed: {exc}", file=sys.stderr)
            return 1
        if round_index:
            if args.no_clear:
                print()
            else:
                # ANSI clear + home: refresh in place like top(1).
                print("\x1b[2J\x1b[H", end="")
        _render_top(stats, metrics.get("metrics") or {}, prof, top_k=args.top)
        sys.stdout.flush()
    return 0


def _cmd_profile(args, parser) -> int:
    from repro.exceptions import ServiceError
    from repro.telemetry.profile import render_profile

    try:
        with _service_client(args) as client:
            reply = client.profile()
    except ServiceError as exc:
        print(f"profile failed: {exc}", file=sys.stderr)
        return 1
    if args.json:
        # Pure-JSON mode: the merged phase tree, pipeable to jq.
        payload = {
            "role": reply.get("role"),
            "version": reply.get("version"),
            "profile": reply.get("profile") or {},
        }
        if "workers_reporting" in reply:
            payload["workers_reporting"] = reply["workers_reporting"]
        if "orchestrator" in reply:
            payload["orchestrator"] = reply["orchestrator"]
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    profile = reply.get("profile") or {}
    phases = profile.get("phases") or {}
    if reply.get("role") == "orchestrator":
        print(
            f"fleet profile "
            f"({reply.get('workers_reporting', 0)} worker(s) reporting)"
        )
    if phases:
        print(render_profile(phases))
    elif profile.get("enabled", True):
        print("no phases recorded yet")
    else:
        print("profiler disabled")
    orch_phases = (reply.get("orchestrator") or {}).get("phases") or {}
    if orch_phases:
        print()
        print("orchestrator:")
        print(render_profile(orch_phases))
    return 0


def _trace_paths(args, parser) -> list:
    from pathlib import Path

    from repro.telemetry.recorder import recorder_files

    paths: list[Path] = [Path(p) for p in (args.recorder or [])]
    if args.recorder_dir:
        directory = Path(args.recorder_dir)
        if not directory.is_dir():
            parser.error(f"--recorder-dir {args.recorder_dir} is not a directory")
        paths.extend(recorder_files(directory))
    if not paths:
        parser.error("pass --recorder FILE (repeatable) and/or --recorder-dir DIR")
    missing = [p for p in paths if not p.exists()]
    if missing:
        parser.error(
            "recorder file(s) not found: " + ", ".join(str(p) for p in missing)
        )
    return paths


def _cmd_trace(args, parser) -> int:
    from repro.telemetry import find_trace

    events = find_trace(args.request_id, _trace_paths(args, parser))
    if args.json:
        print(json.dumps(
            [{"file": name, **event} for name, event in events],
            indent=2, sort_keys=True,
        ))
        return 0 if events else 1
    if not events:
        print(f"request {args.request_id}: no recorder events found")
        return 1
    print(f"request {args.request_id}: {len(events)} event(s)")
    for name, event in events:
        node = event.get("node", "?")
        kind = event.get("kind", "?")
        line = f"  {name:16s} {node:12s} {kind:8s}"
        if kind == "hop":
            status = event.get("status", "?")
            line += f" -> {event.get('worker', '?')} [{status}]"
            if event.get("units") is not None:
                line += f" units={event['units']}"
            if event.get("error"):
                line += f" error={event['error']}"
        else:
            op = event.get("op")
            if op:
                line += f" op={op}"
            if event.get("ok") is False:
                line += " FAILED"
            if event.get("slow"):
                line += " SLOW"
        spans = event.get("spans") or {}
        if spans:
            line += "  " + " ".join(
                f"{key}={value * 1e3:.2f}ms"
                for key, value in sorted(spans.items())
                if isinstance(value, (int, float))
            )
        elif event.get("duration_s") is not None:
            line += f"  total_s={event['duration_s'] * 1e3:.2f}ms"
        print(line)
    return 0


def _cmd_submit(args, parser) -> int:
    from repro.campaign import expand, unit_task_payload
    from repro.exceptions import ServiceError

    single = bool(args.system)
    if single == bool(args.preset or args.spec):
        parser.error("pass either --system or one of --preset/--spec")
    if single and args.seed is not None:
        # A seed overrides a campaign spec's base seed; a bare system
        # has none to override — refusing beats silently ignoring it.
        parser.error("--seed only applies to --preset/--spec submissions")
    if not single and (args.solver is not None or args.model is not None):
        # Symmetrically: campaign specs name their own solvers/models.
        parser.error(
            "--solver/--model only apply to --system submissions; "
            "a campaign spec carries its own"
        )
    if single:
        tasks = [
            {
                "system": {
                    "kind": "named", "params": {"name": args.system},
                },
                "solver": args.solver or "deterministic",
                "model": args.model or "overlap",
                "options": {},
            }
        ]
        labels = [args.system]
    else:
        spec = _load_campaign_spec(args, parser)
        units = expand(spec)
        tasks = [unit_task_payload(u) for u in units]
        labels = [
            f"{u.scenario} "
            + " ".join(f"{k}={v}" for k, v in sorted(u.params.items()))
            for u in units
        ]
    # Chunked like the --via-service runner, so an arbitrarily large
    # spec never hits the protocol's per-frame ceiling.
    chunk_size = _SUBMIT_CHUNK
    values: list = []
    failures: list[dict] = []
    stats: dict = {}
    try:
        with _service_client(args) as client:
            for start in range(0, len(tasks), chunk_size):
                vals, fails, chunk_stats = client.evaluate_batch(
                    tasks[start:start + chunk_size]
                )
                values.extend(vals)
                failures.extend(
                    {**f, "index": f.get("index", 0) + start} for f in fails
                )
                for key, count in chunk_stats.items():
                    stats[key] = stats.get(key, 0) + count
    except ServiceError as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 1
    failed = {f["index"]: f for f in failures}
    print(f"service    : {args.host}:{args.port}")
    print(f"units      : {stats.get('units', len(tasks))}")
    print(f"executed   : {stats.get('executed', 0)}")
    print(
        f"cache hits : {stats.get('disk_hits', 0) + stats.get('memo_hits', 0)} "
        f"({stats.get('disk_hits', 0)} disk + {stats.get('memo_hits', 0)} memo)"
    )
    print(f"coalesced  : {stats.get('coalesced', 0)}")
    print(f"failures   : {len(failures)}")
    for i, (label, value) in enumerate(zip(labels, values)):
        if i in failed:
            f = failed[i]
            print(f"  {label} : FAILED ({f.get('error')}: {f.get('message')})")
        else:
            print(f"  {label} : {value:.6g}")
    return 1 if failures else 0


def _cmd_shutdown(args, parser) -> int:
    from repro.exceptions import ServiceError

    try:
        with _service_client(args) as client:
            client.shutdown()
    except ServiceError as exc:
        print(f"shutdown failed: {exc}", file=sys.stderr)
        return 1
    print(f"service at {args.host}:{args.port} stopped")
    return 0


def _load_campaign_spec(args, parser):
    """Resolve --preset / --spec (exactly one) into a CampaignSpec."""
    from repro.campaign import CampaignSpec, get_preset
    from repro.exceptions import CampaignError

    if bool(args.preset) == bool(args.spec):
        parser.error("pass exactly one of --preset or --spec")
    try:
        if args.preset:
            spec = get_preset(args.preset)
        else:
            try:
                with open(args.spec, encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                parser.error(f"cannot read {args.spec}: {exc}")
            spec = CampaignSpec.from_json(text)
    except CampaignError as exc:
        parser.error(str(exc))
    if getattr(args, "seed", None) is not None:
        spec.seed = args.seed
    return spec


def _cmd_campaign(args, parser) -> int:
    from repro.campaign import (
        ResultStore,
        campaign_report,
        campaign_status,
        run_campaign,
    )
    from repro.exceptions import CampaignError

    try:
        store = ResultStore(args.store)
    except (CampaignError, OSError) as exc:
        parser.error(str(exc))

    if args.campaign_command == "report":
        # run/status legitimately start from a missing store; report of
        # one can only be a typo'd path.
        if not store.path.exists():
            parser.error(f"store {store.path} does not exist")
        results = campaign_report(store, campaign=args.campaign)
        payload = [r.to_dict() for r in results]
        if args.json == "-":
            # Pure-JSON mode: nothing else on stdout, pipeable to jq.
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        if not results:
            print(f"store {store.path} holds no campaign results")
        for result in results:
            print(result.render())
            print()
        if args.json:
            # Written even when empty, so scripted consumers always
            # find the file (an empty array, not a missing path).
            try:
                with open(args.json, "w", encoding="utf-8") as fh:
                    json.dump(payload, fh, indent=2, sort_keys=True)
                    fh.write("\n")
            except OSError as exc:
                parser.error(f"cannot write {args.json}: {exc}")
            print(f"wrote {args.json}")
        return 0

    spec = _load_campaign_spec(args, parser)

    if args.campaign_command == "status":
        try:
            rows = campaign_status(spec, store)
        except CampaignError as exc:
            parser.error(str(exc))
        remaining = 0
        for name, done, total in rows:
            remaining += total - done
            print(f"{name:32s} {done}/{total} done")
        print(f"remaining  : {remaining}")
        return 0 if remaining == 0 else 1

    # campaign run
    if args.n_jobs < 1:
        parser.error("--n-jobs must be >= 1")
    if args.record_request_ids and not args.via_service:
        # Trace ids are minted by the service client; an in-process run
        # has none to record.
        parser.error("--record-request-ids requires --via-service")
    client = None
    if args.via_service:
        from repro.exceptions import ServiceError
        from repro.service import RetryPolicy, ServiceClient, parse_endpoint

        if args.retries < 1:
            parser.error("--retries must be >= 1")
        try:
            host, port = parse_endpoint(args.via_service)
        except ServiceError as exc:
            parser.error(str(exc))
        client = ServiceClient(
            host,
            port,
            connect_timeout=args.service_timeout,
            timeout=args.request_timeout,
            retry=(
                RetryPolicy(max_attempts=args.retries)
                if args.retries > 1 else None
            ),
        )
    try:
        summary = run_campaign(
            spec,
            store,
            n_jobs=args.n_jobs,
            resume=args.resume,
            client=client,
            record_request_ids=args.record_request_ids,
        )
    except CampaignError as exc:
        parser.error(str(exc))
    finally:
        if client is not None:
            client.close()
    print(summary.render())
    return 0


def main(argv: list[str] | None = None) -> int:
    from repro._version import __version__
    from repro.experiments import experiment_names

    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the tables and figures of the paper (Section 7).",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log INFO from the repro.* loggers; repeat for DEBUG",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit one JSON object per log line instead of plain text",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments and campaign presets")
    runp = sub.add_parser("run", help="run one experiment (or 'all')")
    runp.add_argument("experiment", choices=[*experiment_names(), "all"])
    runp.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload scale in (0, 1]; <1 shrinks dataset counts",
    )

    from repro.evaluate import available_solvers

    solvep = sub.add_parser(
        "solve", help="score a named example system with a registered solver"
    )
    solvep.add_argument("system", choices=_system_choices())
    solvep.add_argument(
        "--solver",
        choices=available_solvers(),
        default="deterministic",
        help="registered solver name (default: %(default)s)",
    )
    solvep.add_argument(
        "--model", choices=("overlap", "strict"), default="overlap"
    )
    solvep.add_argument(
        "--semantics", choices=("unbounded", "bottleneck"), default="unbounded"
    )
    solvep.add_argument("--max-states", type=int, default=200_000)
    solvep.add_argument(
        "--n-datasets", type=int, default=1_000,
        help="simulation solver: data sets per run (default: %(default)s)",
    )
    solvep.add_argument(
        "--sim-seed", type=int, default=0,
        help="simulation solver: base seed (default: %(default)s)",
    )

    searchp = sub.add_parser(
        "search",
        help="mapping search (multi-start hill climb) scored by a named solver",
    )
    searchp.add_argument(
        "--solver",
        choices=available_solvers(),
        default="deterministic",
        help="scoring solver (default: %(default)s)",
    )
    searchp.add_argument("--stages", type=int, default=3)
    searchp.add_argument("--processors", type=int, default=9)
    searchp.add_argument("--restarts", type=int, default=5)
    searchp.add_argument("--seed", type=int, default=0)
    searchp.add_argument(
        "--n-jobs", type=int, default=1,
        help="workers for batched candidate scoring (default: serial)",
    )

    from repro.campaign import available_presets

    campp = sub.add_parser(
        "campaign",
        help="declarative scenario sweeps with a persistent, resumable store",
    )
    csub = campp.add_subparsers(dest="campaign_command", required=True)
    crun = csub.add_parser(
        "run", help="execute every pending unit of a campaign into a store"
    )
    cstatus = csub.add_parser(
        "status",
        help="per-scenario completion of a store against a spec "
        "(exits 1 while units remain, 0 when complete)",
    )
    creport = csub.add_parser(
        "report", help="render per-scenario result tables from a store"
    )
    for sp in (crun, cstatus):
        sp.add_argument(
            "--preset",
            choices=available_presets(),
            help="a ready-made campaign spec",
        )
        sp.add_argument(
            "--spec", help="path of a campaign spec JSON file", metavar="FILE"
        )
        sp.add_argument(
            "--seed", type=int, default=None,
            help="override the spec's base seed",
        )
    for sp in (crun, cstatus, creport):
        sp.add_argument(
            "--store", required=True,
            help="path of the JSONL result store", metavar="FILE",
        )
    crun.add_argument(
        "--n-jobs", type=int, default=1,
        help="workers for unit evaluation (default: serial; results are "
        "bit-identical either way)",
    )
    crun.add_argument(
        "--resume",
        action="store_true",
        help="continue a populated store, skipping completed units",
    )
    crun.add_argument(
        "--via-service", default=None, metavar="HOST:PORT",
        help="score units through a running evaluation service "
        "(repro.cli serve) instead of this process; the store stays "
        "byte-identical",
    )
    crun.add_argument(
        "--service-timeout", type=float, default=10.0,
        help="connect timeout for --via-service in seconds; established "
        "chunks wait however long evaluation takes unless "
        "--request-timeout caps them (default: %(default)s)",
    )
    crun.add_argument(
        "--request-timeout", type=float, default=None,
        help="per-chunk deadline for --via-service in seconds "
        "(default: wait however long evaluation takes)",
    )
    crun.add_argument(
        "--retries", type=int, default=3,
        help="attempts per --via-service chunk for transient faults "
        "(timeouts, dropped connections, overload); 1 disables retries "
        "(default: %(default)s)",
    )
    crun.add_argument(
        "--record-request-ids",
        action="store_true",
        help="stamp each --via-service store row with the trace id of the "
        "chunk that produced it (joinable against 'repro.cli trace'; "
        "off by default so stores stay byte-identical to in-process runs)",
    )
    creport.add_argument(
        "--campaign", default=None,
        help="only report records of this campaign name",
    )
    creport.add_argument(
        "--json", default=None, metavar="FILE",
        help="also dump the report tables as JSON ('-' for stdout)",
    )

    from repro.service.protocol import DEFAULT_HOST, DEFAULT_PORT

    servep = sub.add_parser(
        "serve",
        help="run the evaluation service until a shutdown request arrives",
    )
    servep.add_argument("--host", default=DEFAULT_HOST)
    servep.add_argument(
        "--port", type=int, default=DEFAULT_PORT,
        help="TCP port to bind (0 picks an ephemeral one; default: "
        "%(default)s)",
    )
    servep.add_argument(
        "--cache", default=None, metavar="FILE",
        help="tier-2 persistent score cache (JSONL); restartable servers "
        "answer repeat queries from it without recomputation",
    )
    servep.add_argument(
        "--n-jobs", type=int, default=1,
        help="persistent worker processes for batch fan-out "
        "(default: serial)",
    )
    servep.add_argument(
        "--max-entries", type=int, default=None,
        help="LRU bound per structure-cache map (default: unbounded)",
    )
    servep.add_argument(
        "--ready-file", default=None, metavar="FILE",
        help="write {host, port, pid} JSON here once listening "
        "(for scripts that launched the server in the background)",
    )
    servep.add_argument(
        "--capacity", type=int, default=None,
        help="max concurrently dispatched work requests; arrivals past it "
        "are shed instantly with a structured 'overloaded' reply "
        "(default: unbounded)",
    )
    servep.add_argument(
        "--retry-after", type=float, default=1.0,
        help="back-off hint in seconds carried by shed replies "
        "(default: %(default)s)",
    )
    servep.add_argument(
        "--max-pool-restarts", type=int, default=3,
        help="worker-pool rebuilds after crashes before the engine "
        "degrades to in-process serial evaluation (default: %(default)s)",
    )
    servep.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="fault-injection spec, e.g. 'drop:2,crash:1,delay:1:0.5' "
        "(chaos testing; default: the REPRO_FAULTS environment variable)",
    )
    servep.add_argument(
        "--recorder", default=None, metavar="FILE",
        help="flight-recorder JSONL file: one event per traced request "
        "('repro.cli trace' joins these across a fleet; default: off)",
    )
    servep.add_argument(
        "--recorder-max-bytes", type=int, default=16_000_000,
        help="rotate the recorder file past this size "
        "(default: %(default)s)",
    )
    servep.add_argument(
        "--slow-threshold", type=float, default=None, metavar="SECONDS",
        help="recorder events at least this slow are marked and logged "
        "at WARNING (default: off; requires --recorder)",
    )

    from repro.service.routing import available_strategies

    servep.add_argument(
        "--role", choices=("worker", "orchestrator"), default="worker",
        help="worker: evaluate requests in this process (the default); "
        "orchestrator: forward them across a fleet named by --workers",
    )
    servep.add_argument(
        "--workers", default=None, metavar="HOST:PORT,...",
        help="comma-separated worker endpoints for --role orchestrator",
    )
    fleet_tuning = [
        (
            "--strategy",
            dict(
                choices=available_strategies(),
                default="fingerprint_affinity",
                help="how the orchestrator routes requests to workers "
                "(default: %(default)s)",
            ),
        ),
        (
            "--ping-interval",
            dict(
                type=float, default=2.0, metavar="SECONDS",
                help="liveness-ping period; failed workers are evicted "
                "from the rotation, recovered ones revived "
                "(default: %(default)s)",
            ),
        ),
        (
            "--max-worker-failures",
            dict(
                type=int, default=3, metavar="N",
                help="consecutive failures before a worker's circuit "
                "breaker trips (default: %(default)s)",
            ),
        ),
        (
            "--breaker-cooldown",
            dict(
                type=float, default=5.0, metavar="SECONDS",
                help="cooldown before a tripped worker gets its single "
                "half-open probe; doubles per consecutive trip "
                "(default: %(default)s)",
            ),
        ),
        (
            "--max-unit-attempts",
            dict(
                type=int, default=3, metavar="N",
                help="distinct workers a unit may fail on before it is "
                "quarantined as a structured failure instead of being "
                "re-dispatched forever (default: %(default)s)",
            ),
        ),
    ]
    for flag, options in fleet_tuning:
        servep.add_argument(flag, **options)
    servep.add_argument(
        "--failover-sweeps", type=int, default=3,
        help="full passes over the failover ranking before the "
        "orchestrator reports a request as failed (default: %(default)s)",
    )

    fleetp = sub.add_parser(
        "fleet",
        help="spawn N worker daemons plus an orchestrator fronting them "
        "(one endpoint, runs until shutdown)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "flag routing — per-worker vs orchestrator:\n"
            "  worker-level (applied to every spawned 'serve' daemon):\n"
            "    --worker-n-jobs, --max-entries, --cache-dir, --capacity,\n"
            "    --max-pool-restarts, --slow-threshold, --faults\n"
            "  orchestrator-level (routing, liveness and repair policy):\n"
            "    --strategy, --ping-interval, --max-worker-failures,\n"
            "    --breaker-cooldown, --max-unit-attempts, --supervise,\n"
            "    --max-worker-restarts, --supervisor-interval\n"
            "  --faults takes one spec for every worker ('drop:1') or\n"
            "  per-index clauses ('0=crash:1;2=hang:1:5'); --supervise\n"
            "  respawns dead workers on their registered ports (bounded\n"
            "  budget, exponential backoff) and re-announces them for a\n"
            "  half-open breaker probe."
        ),
    )
    fleetp.add_argument(
        "--n-workers", type=int, default=2,
        help="worker daemons to spawn (default: %(default)s)",
    )
    fleetp.add_argument("--host", default=DEFAULT_HOST)
    fleetp.add_argument(
        "--port", type=int, default=DEFAULT_PORT,
        help="orchestrator TCP port (0 picks an ephemeral one; workers "
        "always bind ephemeral ports; default: %(default)s)",
    )
    for flag, options in fleet_tuning:
        fleetp.add_argument(flag, **options)
    fleetp.add_argument(
        "--worker-n-jobs", type=int, default=1,
        help="evaluation processes per worker (default: serial)",
    )
    fleetp.add_argument(
        "--max-entries", type=int, default=None,
        help="LRU bound per worker structure-cache map "
        "(default: unbounded)",
    )
    fleetp.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="directory for per-worker persistent score caches "
        "(worker<k>.jsonl; default: memory only)",
    )
    fleetp.add_argument(
        "--recorder-dir", default=None, metavar="DIR",
        help="directory for per-node flight recorders (w<k>.jsonl per "
        "worker plus orchestrator.jsonl, joinable on request_id via "
        "'repro.cli trace --recorder-dir DIR'; default: off)",
    )
    fleetp.add_argument(
        "--ready-file", default=None, metavar="FILE",
        help="write the orchestrator's {host, port, pid} JSON here once "
        "the whole fleet is up",
    )
    fleetp.add_argument(
        "--startup-timeout", type=float, default=30.0,
        help="seconds to wait for each worker's ready file "
        "(default: %(default)s)",
    )
    fleetp.add_argument(
        "--capacity", type=int, default=None,
        help="per-worker admission bound: max concurrently dispatched "
        "work requests on each spawned daemon (default: unbounded)",
    )
    fleetp.add_argument(
        "--max-pool-restarts", type=int, default=None,
        help="per-worker pool rebuilds after crashes before that worker "
        "degrades to serial evaluation (default: the daemon's own "
        "default)",
    )
    fleetp.add_argument(
        "--slow-threshold", type=float, default=None, metavar="SECONDS",
        help="per-worker slow-request mark for the flight recorders "
        "(requires --recorder-dir; default: off)",
    )
    fleetp.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="fault injection on the spawned workers: one spec for all "
        "('drop:1') or per-index clauses ('0=crash:1;2=hang:1:5'; "
        "chaos testing; default: none)",
    )
    fleetp.add_argument(
        "--supervise", action="store_true",
        help="watch the spawned workers and respawn dead ones on their "
        "registered endpoints (bounded restart budget, exponential "
        "backoff), re-announcing them to the catalog for a half-open "
        "breaker probe (default: off)",
    )
    fleetp.add_argument(
        "--max-worker-restarts", type=int, default=3, metavar="N",
        help="respawns each supervised worker may consume before it is "
        "abandoned (default: %(default)s)",
    )
    fleetp.add_argument(
        "--supervisor-interval", type=float, default=1.0, metavar="SECONDS",
        help="supervisor health-check cadence (default: %(default)s)",
    )

    pingp = sub.add_parser(
        "ping",
        help="probe a running service (exit 0: alive, 1: unreachable)",
    )
    statsp = sub.add_parser(
        "stats",
        help="dump a running service's admission/shedding/pool statistics "
        "as JSON (exit 0: alive, 1: unreachable)",
    )
    metricsp = sub.add_parser(
        "metrics",
        help="scrape a running service's metrics registry (Prometheus "
        "text by default; orchestrators merge the whole fleet's "
        "histograms; exit 0: alive, 1: unreachable)",
    )
    profilep = sub.add_parser(
        "profile",
        help="dump a running service's per-phase cost-attribution tree "
        "(orchestrators merge the whole fleet's phase trees; "
        "exit 0: alive, 1: unreachable)",
    )
    topp = sub.add_parser(
        "top",
        help="live fleet dashboard: totals, per-worker rows, cache hit "
        "rates, latency percentiles and the hottest phases, refreshed "
        "in place (exit 0: alive, 1: unreachable)",
    )
    submitp = sub.add_parser(
        "submit",
        help="submit work to a running service "
        "(exit 0: all scored, 1: any failure)",
    )
    shutdownp = sub.add_parser(
        "shutdown", help="stop a running service cleanly"
    )
    for sp in (pingp, statsp, metricsp, profilep, topp, submitp, shutdownp):
        sp.add_argument("--host", default=DEFAULT_HOST)
        sp.add_argument("--port", type=int, default=DEFAULT_PORT)
        sp.add_argument(
            "--timeout", type=float, default=10.0,
            help="connect timeout in seconds; established requests wait "
            "for the server however long the batch takes unless "
            "--request-timeout caps them (default: %(default)s)",
        )
        sp.add_argument(
            "--request-timeout", type=float, default=None,
            help="per-request deadline in seconds; a hung server raises "
            "ServiceTimeout at the deadline "
            "(default: wait however long evaluation takes)",
        )
        sp.add_argument(
            "--retries", type=int, default=3,
            help="attempts per request for transient faults; shutdown is "
            "never retried; 1 disables retries (default: %(default)s)",
        )
    pingp.add_argument(
        "--json", action="store_true",
        help="dump the raw counter block as JSON",
    )
    statsp.add_argument(
        "--json", action="store_true",
        help="force raw JSON output (orchestrators render a per-worker "
        "table otherwise; plain workers always print JSON)",
    )
    statsp.add_argument(
        "--watch", action="store_true",
        help="keep polling instead of sampling once (Ctrl-C to stop)",
    )
    statsp.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="--watch polling period (default: %(default)s)",
    )
    statsp.add_argument(
        "--count", type=int, default=None, metavar="N",
        help="stop --watch after N samples (default: until interrupted)",
    )
    metricsp.add_argument(
        "--json", action="store_true",
        help="dump the merged metrics snapshot as JSON instead of "
        "Prometheus text exposition",
    )
    profilep.add_argument(
        "--json", action="store_true",
        help="dump the merged phase tree as JSON instead of a table",
    )
    topp.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh period (default: %(default)s)",
    )
    topp.add_argument(
        "--count", type=int, default=None, metavar="N",
        help="stop after N refreshes (default: until interrupted)",
    )
    topp.add_argument(
        "--top", type=int, default=8, metavar="K",
        help="show the K hottest phases by self time (default: %(default)s)",
    )
    topp.add_argument(
        "--no-clear", action="store_true",
        help="append refreshes instead of clearing the screen "
        "(log-friendly; the default clears between refreshes)",
    )
    tracep = sub.add_parser(
        "trace",
        help="reconstruct one traced request's path (client id -> "
        "orchestrator hops -> workers) from flight-recorder files "
        "(exit 0: found, 1: no events)",
    )
    tracep.add_argument(
        "request_id",
        help="the trace id (ServiceClient.last_request_id, a failure "
        "record's request_id, or a campaign row recorded with "
        "--record-request-ids)",
    )
    tracep.add_argument(
        "--recorder", action="append", default=None, metavar="FILE",
        help="a flight-recorder JSONL file to search (repeatable)",
    )
    tracep.add_argument(
        "--recorder-dir", default=None, metavar="DIR",
        help="search every *.jsonl recorder in this directory "
        "(the layout 'repro.cli fleet --recorder-dir' writes)",
    )
    tracep.add_argument(
        "--json", action="store_true",
        help="dump the matching events as JSON instead of a span table",
    )
    submitp.add_argument(
        "--preset",
        choices=available_presets(),
        help="submit every unit of a ready-made campaign",
    )
    submitp.add_argument(
        "--spec", help="path of a campaign spec JSON file", metavar="FILE"
    )
    submitp.add_argument(
        "--seed", type=int, default=None,
        help="override the spec's base seed",
    )
    submitp.add_argument(
        "--system", choices=_system_choices(),
        help="submit one named example system instead of a campaign",
    )
    submitp.add_argument(
        "--solver",
        choices=available_solvers(),
        default=None,
        help="solver for --system (default: deterministic)",
    )
    submitp.add_argument(
        "--model", choices=("overlap", "strict"), default=None,
        help="model for --system (default: overlap)",
    )

    benchp = sub.add_parser(
        "bench",
        help="run the self-heal chaos benchmark (service.selfheal) and "
        "write a JSON report",
    )
    benchp.add_argument(
        "--quick",
        action="store_true",
        help="a shorter trace and fewer repeats",
    )
    benchp.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="timing repeats (default: 5, or 2 with --quick)",
    )
    benchp.add_argument(
        "--output",
        default="BENCH_PR1.json",
        help="path of the JSON report, or '-' to stream the raw JSON to "
        "stdout without touching disk (default: %(default)s)",
    )
    benchp.add_argument(
        "--force",
        action="store_true",
        help="overwrite an existing report file (committed PR baselines are "
        "refused otherwise)",
    )
    args = parser.parse_args(argv)

    from repro.telemetry import configure_logging

    configure_logging(verbose=args.verbose, log_json=args.log_json)

    if args.command == "solve":
        return _cmd_solve(args, parser)
    if args.command == "search":
        return _cmd_search(args, parser)
    if args.command == "campaign":
        return _cmd_campaign(args, parser)
    if args.command == "serve":
        return _cmd_serve(args, parser)
    if args.command == "fleet":
        return _cmd_fleet(args, parser)
    if args.command == "ping":
        return _cmd_ping(args, parser)
    if args.command == "stats":
        return _cmd_stats(args, parser)
    if args.command == "metrics":
        return _cmd_metrics(args, parser)
    if args.command == "profile":
        return _cmd_profile(args, parser)
    if args.command == "top":
        return _cmd_top(args, parser)
    if args.command == "trace":
        return _cmd_trace(args, parser)
    if args.command == "submit":
        return _cmd_submit(args, parser)
    if args.command == "shutdown":
        return _cmd_shutdown(args, parser)

    if args.command == "bench":
        from repro.bench import render_report, run_benchmarks, write_report

        if args.repeats is not None and args.repeats < 1:
            parser.error("--repeats must be >= 1")
        to_stdout = args.output == "-"
        if not to_stdout and os.path.exists(args.output) and not args.force:
            parser.error(
                f"{args.output} already exists (a committed benchmark "
                "baseline?); pass --force to overwrite or choose another "
                "--output"
            )
        report = run_benchmarks(quick=args.quick, repeats=args.repeats)
        if to_stdout:
            # Pure JSON on stdout: the human table would corrupt the
            # stream.
            print(json.dumps(report, indent=2, sort_keys=True))
            return 0
        print(render_report(report))
        try:
            write_report(report, args.output)
        except OSError as exc:
            parser.error(f"cannot write {args.output}: {exc}")
        print(f"\nwrote {args.output}")
        return 0

    if args.command == "list":
        from repro.campaign import get_preset
        from repro.experiments import experiment_description

        print("experiments:")
        for name in experiment_names():
            print(f"  {name:8s} {experiment_description(name)}")
        print("campaign presets (campaign run --preset <name>):")
        for name in available_presets():
            spec = get_preset(name)
            print(f"  {name:8s} {spec.description}")
        return 0

    from repro.experiments import get_experiment

    names = (
        list(experiment_names()) if args.experiment == "all"
        else [args.experiment]
    )
    for name in names:
        module = get_experiment(name)
        cfg = _scaled_config(name, module, args.scale)
        result = module.run(cfg)
        print(result.render())
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    try:
        sys.exit(main())
    except BrokenPipeError:
        # stdout consumer (head, grep -q, …) closed the pipe early: the
        # Unix-conventional quiet exit, not a traceback. Redirect stdout
        # to devnull so the interpreter's shutdown flush can't re-raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)  # 128 + SIGPIPE
