"""Engine micro-benchmarks feeding the performance trajectory.

``python -m repro.cli bench`` runs every engine below and writes a JSON
report (``BENCH_PR1.json`` by default) mapping each engine to its median
wall time plus the state/event counts that give the timings a scale.
Subsequent PRs append ``BENCH_PR<n>.json`` files, so regressions in any
layer show up as a broken trajectory.

Benchmarked engines:

* ``reachability.vectorized`` / ``reachability.reference`` — the batched
  and the marking-at-a-time BFS on a mid-size bounded (Strict) net;
* ``markov.throughput`` — Theorem 2 end-to-end (explore + CTMC + solve);
* ``sim.fast`` / ``sim.reference`` — both discrete-event engines on the
  paper's Overlap system;
* ``replicate.serial`` / ``replicate.parallel`` — the replication runner
  with ``n_jobs=1`` vs all cores;
* ``replication.loop`` / ``replication.vectorized`` — the paper's
  Section 7.2/7.3 replication study (500 replications of the Fig. 10
  Overlap system) through the per-replication loop vs the batched numpy
  recurrence pass (``replicate(engine=)``), with the per-replication
  estimate vectors asserted byte-identical;
* ``maxplus.matmul`` — the row-blocked (max,+) product;
* ``search.uncached`` / ``search.memoized`` — the multi-start mapping
  search scored through ``repro.evaluate`` without / with the
  fingerprint memo (the PR 2 batched-search workload);
* ``evaluate_many.strict.uncached`` / ``.cached`` — a same-topology
  candidate batch under the Strict exponential solver, where the cache
  shares one reachability exploration across the whole batch;
* ``campaign.cold`` / ``campaign.resume`` — the declarative campaign
  runner on a preset grid, cold into a fresh store vs ``--resume`` on a
  completed one (which must execute 0 units and only pay for the
  expansion + store scan);
* ``service.cold`` / ``service.warm`` / ``service.coalesced`` — the
  resident evaluation service over a real loopback socket: the smoke
  batch against an empty tier-2 disk cache, the same batch against a
  freshly *restarted* server on the populated cache (which must execute
  0 evaluator runs), and N concurrent identical submissions (which must
  coalesce into exactly 1 evaluator run);
* ``service.overload`` — a synchronized burst of M distinct requests
  against a ``capacity=2`` server: shed requests get their structured
  ``overloaded`` rejection instantly (that's the p50), admitted ones
  pay the evaluation (the p99); the shed rate and both latency
  percentiles quantify the load-shedding contract;
* ``service.fleet.single`` / ``service.fleet.quad`` — a cyclic,
  coalescing-free trace over K distinct structures against one worker
  vs a 4-worker fleet behind the orchestrator, every worker's
  structure cache LRU-bounded below K: the single worker thrashes
  while fingerprint-affinity routing keeps each shard hot, so the
  fleet speedup measures *aggregate cache capacity* (the report also
  records the affinity vs round_robin hit rates on the same trace);
* ``service.selfheal`` — the same trace against a *supervised* 4-worker
  fleet with kill-every-k-batches chaos: a worker is torn down abruptly
  every k requests and the :class:`FleetSupervisor` respawns it
  mid-trace. The report records recovery latency (kill → respawn),
  goodput retained under chaos vs the clean pass, respawn and failover
  counts, and asserts the chaos pass's values byte-identical to the
  clean pass (self-healing must never lose or duplicate a unit).

``run_benchmarks(workloads=[...])`` (CLI: ``bench --workloads``) filters
the suite by substring match on the engine names above, so a single
workload pair can be re-timed without re-running everything; speedup
ratios are reported for whichever pairs actually ran.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import time
from collections.abc import Callable
from functools import partial

import numpy as np


def _git_revision() -> str | None:
    """The repo's short HEAD revision, or None outside a git checkout.

    Recorded into every report's ``meta`` so a BENCH_*.json file stays
    attributable to the exact tree that produced it even after it is
    copied out of the repository.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5.0,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    revision = out.stdout.strip()
    return revision if out.returncode == 0 and revision else None


#: Every engine name the full suite can time, in suite order. This is
#: the vocabulary behind ``--workloads`` (substring match) and the
#: ``cli bench --list-workloads`` flag; keep it in sync with the
#: ``engines[...] =`` assignments in :func:`run_benchmarks`.
WORKLOAD_ENGINES: tuple[str, ...] = (
    "reachability.vectorized",
    "reachability.reference",
    "markov.throughput",
    "sim.fast",
    "sim.reference",
    "replicate.serial",
    "replicate.parallel",
    "replication.loop",
    "replication.vectorized",
    "maxplus.matmul",
    "search.uncached",
    "search.memoized",
    "evaluate_many.strict.uncached",
    "evaluate_many.strict.cached",
    "campaign.cold",
    "campaign.resume",
    "service.cold",
    "service.warm",
    "service.coalesced",
    "service.overload",
    "service.fleet.single",
    "service.fleet.quad",
    "service.selfheal",
)


def available_workloads() -> tuple[str, ...]:
    """Engine names the benchmark suite can time (``--workloads`` targets)."""
    return WORKLOAD_ENGINES


def _timed(fn: Callable[[], object], repeats: int) -> tuple[float, object]:
    """Median wall time over ``repeats`` runs and the last return value.

    One untimed warm-up call precedes the measurement, so lazy imports and
    first-touch allocations don't skew whichever engine runs first.
    """
    fn()
    times = []
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), value


def _mid_size_strict_net(quick: bool):
    """A bounded Strict-model net sized for the reachability benchmark.

    ``quick`` keeps the state space near 1k markings (CI smoke); the full
    benchmark explores ~10k markings / 44k arcs (10 368 markings, the
    count ``tests/test_kernels.py`` pins).
    """
    from repro import Application, Mapping, Platform
    from repro.petri import build_strict_tpn

    teams = [[0], [1, 2], [3, 4, 5]] if quick else [[0, 1], [2, 3, 4], [5, 6, 7]]
    n = len(teams)
    m = max(p for team in teams for p in team) + 1
    app = Application.from_work([1.0] * n, [1.0] * (n - 1))
    r = np.random.default_rng(1)
    speeds = r.uniform(0.5, 2.0, m).tolist()
    bw = r.uniform(0.5, 2.0, (m, m))
    bw = np.triu(bw, 1)
    bw = bw + bw.T + np.eye(m)
    platform = Platform.from_speeds(speeds, bw)
    return build_strict_tpn(Mapping(app, platform, teams))


def _sim_run(tpn, n_datasets: int, engine: str, rng: np.random.Generator):
    from repro.sim import simulate_tpn

    return simulate_tpn(tpn, n_datasets=n_datasets, rng=rng, engine=engine)


def run_benchmarks(
    *,
    quick: bool = False,
    repeats: int | None = None,
    workloads: list[str] | tuple[str, ...] | None = None,
) -> dict:
    """Run the engine micro-benchmarks and return the report dict.

    ``workloads`` filters the suite by substring match on engine names.
    Engines are timed in slower/faster blocks, so matching either side of
    a pair runs the whole block (``["replication"]`` re-times
    ``replication.loop`` *and* ``replication.vectorized`` — a ratio needs
    both). ``None`` / empty runs everything.
    """
    from repro.markov import tpn_throughput_exponential
    from repro.maxplus.matrix import MaxPlusMatrix
    from repro.petri import build_overlap_tpn
    from repro.petri.reachability import explore, explore_reference
    from repro.experiments.fig10 import paper_system
    from repro.sim import replicate, simulate_tpn

    if repeats is None:
        repeats = 2 if quick else 5
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    selected = tuple(s for s in (workloads or ()) if s)

    def _want(*names: str) -> bool:
        return not selected or any(
            sub in name for name in names for sub in selected
        )

    engines: dict[str, dict] = {}
    max_states = 500_000

    # Shared fixtures, built once on first use so a filtered run only
    # pays for what it times.
    fixtures: dict[str, object] = {}

    def _strict_net():
        if "strict" not in fixtures:
            net = _mid_size_strict_net(quick)
            net.kernel  # build the cached incidence structures up front
            fixtures["strict"] = net
        return fixtures["strict"]

    def _overlap_net():
        if "overlap" not in fixtures:
            net = build_overlap_tpn(paper_system())
            net.kernel
            fixtures["overlap"] = net
        return fixtures["overlap"]

    def _strict_reach():
        if "reach" not in fixtures:
            fixtures["reach"] = explore(_strict_net(), max_states=max_states)
        return fixtures["reach"]

    # -- reachability -------------------------------------------------
    if _want("reachability.vectorized", "reachability.reference"):
        strict = _strict_net()
        vec_t, reach = _timed(
            partial(explore, strict, max_states=max_states), repeats
        )
        fixtures["reach"] = reach
        n_arcs = sum(len(moves) for moves in reach.arcs)
        engines["reachability.vectorized"] = {
            "median_s": vec_t, "n_states": reach.n_states, "n_arcs": n_arcs,
        }
        ref_t, ref = _timed(
            partial(explore_reference, strict, max_states=max_states),
            max(1, repeats // 2),
        )
        engines["reachability.reference"] = {
            "median_s": ref_t, "n_states": ref.n_states,
            "n_arcs": sum(len(moves) for moves in ref.arcs),
        }

    # -- exact exponential throughput (Theorem 2, end to end) ---------
    if _want("markov.throughput"):
        thr_t, rho = _timed(
            partial(
                tpn_throughput_exponential, _strict_net(),
                max_states=max_states,
            ),
            max(1, repeats // 2),
        )
        engines["markov.throughput"] = {
            "median_s": thr_t, "n_states": _strict_reach().n_states,
            "throughput": float(rho),
        }

    # -- discrete-event simulation ------------------------------------
    if _want("sim.fast", "sim.reference"):
        overlap = _overlap_net()
        n_datasets = 500 if quick else 2000
        fast_t, fast = _timed(
            lambda: simulate_tpn(
                overlap, n_datasets=n_datasets, seed=7, engine="fast"
            ),
            repeats,
        )
        engines["sim.fast"] = {"median_s": fast_t, "n_events": fast.n_events,
                               "n_datasets": n_datasets}
        ref_sim_t, ref_sim = _timed(
            lambda: simulate_tpn(overlap, n_datasets=n_datasets, seed=7,
                                 engine="reference"),
            max(1, repeats // 2),
        )
        engines["sim.reference"] = {
            "median_s": ref_sim_t, "n_events": ref_sim.n_events,
            "n_datasets": n_datasets,
        }

    # -- replication runner (process pool) ----------------------------
    if _want("replicate.serial", "replicate.parallel"):
        n_rep = 4 if quick else 16
        rep_datasets = 100 if quick else 300
        run = partial(_sim_run, _overlap_net(), rep_datasets, "fast")
        serial_t, serial = _timed(
            partial(replicate, run, n_replications=n_rep, seed=11),
            max(1, repeats // 2),
        )
        engines["replicate.serial"] = {
            "median_s": serial_t, "n_replications": n_rep, "mean": serial.mean,
        }
        n_jobs = max(1, os.cpu_count() or 1)
        par_t, par = _timed(
            partial(replicate, run, n_replications=n_rep, seed=11,
                    n_jobs=n_jobs),
            max(1, repeats // 2),
        )
        engines["replicate.parallel"] = {
            "median_s": par_t, "n_replications": n_rep, "n_jobs": n_jobs,
            "mean": par.mean, "bit_identical_to_serial": par == serial,
        }

    # -- batched replication study: loop vs vectorized engine ---------
    if _want("replication.loop", "replication.vectorized"):
        from repro.sim import ReplicationSpec, replication_values

        # The paper workload: 500 replications of the Fig. 10 Overlap
        # system under exponential times (quick mode shrinks it to the
        # 32-replication CI smoke study).
        n_rep = 32 if quick else 500
        rep_nd = 200 if quick else 1000
        rspec = ReplicationSpec(
            paper_system(), "overlap", n_datasets=rep_nd, law="exponential"
        )
        loop_t, loop_sum = _timed(
            partial(replicate, rspec, n_replications=n_rep, seed=11,
                    engine="loop"),
            max(1, repeats // 2),
        )
        engines["replication.loop"] = {
            "median_s": loop_t, "n_replications": n_rep,
            "n_datasets": rep_nd, "mean": loop_sum.mean,
        }
        vec_t, vec_sum = _timed(
            partial(replicate, rspec, n_replications=n_rep, seed=11,
                    engine="vectorized"),
            repeats,
        )
        loop_vals = replication_values(
            rspec, n_replications=n_rep, seed=11, engine="loop"
        )
        vec_vals = replication_values(
            rspec, n_replications=n_rep, seed=11, engine="vectorized"
        )
        engines["replication.vectorized"] = {
            "median_s": vec_t, "n_replications": n_rep,
            "n_datasets": rep_nd, "mean": vec_sum.mean,
            "summary_identical_to_loop": vec_sum == loop_sum,
            "per_replication_identical": (
                loop_vals.tobytes() == vec_vals.tobytes()
            ),
        }

    # -- (max,+) matrix product ---------------------------------------
    if _want("maxplus.matmul"):
        n = 96 if quick else 192
        rng = np.random.default_rng(2)
        a = rng.uniform(0.0, 5.0, (n, n))
        a[rng.random((n, n)) < 0.5] = -np.inf
        mat = MaxPlusMatrix(a)
        mm_t, _ = _timed(lambda: mat @ mat, repeats)
        engines["maxplus.matmul"] = {"median_s": mm_t, "n": n}

    # -- batched mapping search (repro.evaluate) ----------------------
    from repro import Application, Mapping, Platform
    from repro.evaluate import StructureCache, evaluate_many
    from repro.mapping.heuristics import random_restart_search

    if _want("search.uncached", "search.memoized"):
        # A paper-style instance: heterogeneous works on a homogeneous
        # platform, where many search moves are throughput-isomorphic and
        # the fingerprint memo shines (heterogeneous platforms still
        # dedupe repeats, just fewer of them).
        s_rng = np.random.default_rng(0)
        s_app = Application.from_work(
            s_rng.uniform(1.0, 8.0, 4).tolist(),
            s_rng.uniform(0.5, 2.0, 3).tolist(),
        )
        s_plat = Platform.homogeneous(12, 2.0, 1.0)
        n_restarts = 1 if quick else 3

        def _search(enabled: bool):
            cache = StructureCache(enabled=enabled)
            return random_restart_search(
                s_app, s_plat, n_restarts=n_restarts, seed=2, cache=cache
            )

        un_t, un = _timed(partial(_search, False), max(1, repeats // 2))
        engines["search.uncached"] = {
            "median_s": un_t, "n_restarts": n_restarts,
            "evaluations": un.evaluations, "solver_runs": un.cache_misses,
        }
        memo_t, memo = _timed(partial(_search, True), max(1, repeats // 2))
        engines["search.memoized"] = {
            "median_s": memo_t, "n_restarts": n_restarts,
            "evaluations": memo.evaluations, "solver_runs": memo.cache_misses,
            "cache_hits": memo.cache_hits,
            "same_optimum": memo.throughput == un.throughput,
        }

    # -- same-topology Strict batch: shared reachability ---------------
    if _want("evaluate_many.strict.uncached", "evaluate_many.strict.cached"):
        n_cand = 4 if quick else 8
        b_rng = np.random.default_rng(3)
        b_app = Application.from_work([1.0, 1.0, 1.0], [0.5, 0.5])
        teams = [[0], [1, 2], [3, 4, 5]]
        candidates = [
            Mapping(
                b_app,
                Platform.from_speeds(
                    b_rng.uniform(0.5, 2.0, 6).tolist(), 1.0
                ),
                teams,
            )
            for _ in range(n_cand)
        ]

        def _batch(enabled: bool):
            return evaluate_many(
                candidates,
                solver="exponential",
                model="strict",
                cache=StructureCache(enabled=enabled),
            )

        bu_t, bu = _timed(partial(_batch, False), max(1, repeats // 2))
        engines["evaluate_many.strict.uncached"] = {
            "median_s": bu_t, "n_candidates": n_cand,
        }
        bc_t, bc = _timed(partial(_batch, True), max(1, repeats // 2))
        engines["evaluate_many.strict.cached"] = {
            "median_s": bc_t, "n_candidates": n_cand,
            "bit_identical_to_uncached": bu == bc,
        }

    # -- campaign runner: cold run vs --resume ------------------------
    import tempfile

    from repro.campaign import ResultStore, get_preset, run_campaign

    if _want("campaign.cold", "campaign.resume"):
        campaign_spec = get_preset("smoke" if quick else "fig13")

        def _campaign_cold():
            with tempfile.TemporaryDirectory() as td:
                return run_campaign(
                    campaign_spec,
                    ResultStore(os.path.join(td, "campaign.jsonl")),
                )

        cold_t, cold = _timed(_campaign_cold, max(1, repeats // 2))
        engines["campaign.cold"] = {
            "median_s": cold_t, "preset": campaign_spec.name,
            "units": cold.total, "executed": cold.executed,
        }
        with tempfile.TemporaryDirectory() as td:
            store_path = os.path.join(td, "campaign.jsonl")
            run_campaign(campaign_spec, ResultStore(store_path))
            resume_t, resumed = _timed(
                lambda: run_campaign(
                    campaign_spec, ResultStore(store_path), resume=True
                ),
                repeats,
            )
        engines["campaign.resume"] = {
            "median_s": resume_t, "preset": campaign_spec.name,
            "units": resumed.total, "executed": resumed.executed,
            "skipped": resumed.skipped,
        }

    # -- evaluation service: cold vs warm restart vs coalescing --------
    import threading

    from repro.campaign import expand, unit_task_payload
    from repro.service import (
        DiskScoreCache,
        EvaluationEngine,
        ServiceClient,
        serve_in_thread,
    )

    if _want("service.cold", "service.warm"):
        # Quick mode reuses the cheap smoke grid; the full benchmark
        # sends a mixed batch heavy enough (Strict marking chains, a long
        # simulation) that the warm restart ratio reflects recomputation
        # actually saved, not just socket round-trips.
        if quick:
            service_tasks = [
                unit_task_payload(u) for u in expand(get_preset("smoke"))
            ]
        else:
            def _pattern(u: int, v: int, solver: str) -> dict:
                return {
                    "system": {
                        "kind": "single_communication",
                        "params": {"u": u, "v": v, "comm_time": 1.0},
                    },
                    "solver": solver, "model": "strict", "options": {},
                }

            service_tasks = [
                _pattern(3, 4, "exponential"),
                _pattern(4, 3, "exponential"),
                _pattern(3, 4, "deterministic"),
                {
                    "system": {
                        "kind": "single_communication",
                        "params": {"u": 3, "v": 4, "comm_time": 1.0},
                    },
                    "solver": "simulation", "model": "overlap",
                    "options": {"n_datasets": 2000, "seed": 1},
                },
            ]

        def _serve_batch(cache_path: str | None) -> dict:
            """One server lifetime: start, submit the smoke batch, stop."""
            disk = DiskScoreCache(cache_path) if cache_path else None
            engine = EvaluationEngine(disk=disk)
            server, thread = serve_in_thread(engine)
            try:
                with ServiceClient(*server.endpoint) as client:
                    _values, _failures, stats = client.evaluate_batch(
                        service_tasks
                    )
                return stats
            finally:
                server.shutdown()
                server.server_close()
                engine.close()
                thread.join()

        def _service_cold() -> dict:
            with tempfile.TemporaryDirectory() as std:
                return _serve_batch(os.path.join(std, "svc.jsonl"))

        cold_svc_t, cold_svc = _timed(_service_cold, max(1, repeats // 2))
        engines["service.cold"] = {
            "median_s": cold_svc_t, "units": len(service_tasks),
            "executed": cold_svc["executed"],
            "disk_hits": cold_svc["disk_hits"],
        }
        with tempfile.TemporaryDirectory() as std:
            svc_path = os.path.join(std, "svc.jsonl")
            _serve_batch(svc_path)  # populate the tier-2 cache once
            # Every timed call is a fresh server process-equivalent (new
            # engine, new memo) on the *existing* disk cache — the restart
            # scenario. It must answer without a single evaluator run.
            warm_svc_t, warm_svc = _timed(
                partial(_serve_batch, svc_path), max(1, repeats // 2)
            )
        engines["service.warm"] = {
            "median_s": warm_svc_t, "units": len(service_tasks),
            "executed": warm_svc["executed"],
            "disk_hits": warm_svc["disk_hits"],
        }

    if _want("service.coalesced"):
        n_clients = 4 if quick else 8
        # The burst must still be in flight when the followers arrive, so
        # the full benchmark uses a marking chain that takes ~0.3 s; quick
        # mode keeps a small one (executed=1 holds either way — followers
        # that miss the flight window are absorbed by the memo instead).
        coalesce_uv = (3, 3) if quick else (3, 4)
        coalesce_task = {
            "system": {
                "kind": "single_communication",
                "params": {"u": coalesce_uv[0], "v": coalesce_uv[1]},
            },
            "solver": "exponential", "model": "strict", "options": {},
        }

        def _service_coalesced() -> dict:
            """N concurrent identical submissions against a cold server."""
            engine = EvaluationEngine()
            server, thread = serve_in_thread(engine)
            barrier = threading.Barrier(n_clients)

            def _one_client() -> None:
                with ServiceClient(*server.endpoint) as client:
                    client.ping()  # connect before the synchronized burst
                    barrier.wait()
                    client.evaluate(coalesce_task)

            try:
                workers = [
                    threading.Thread(target=_one_client)
                    for _ in range(n_clients)
                ]
                for w in workers:
                    w.start()
                for w in workers:
                    w.join()
                return {
                    "executed": engine.executed,
                    "coalesced": engine.queue.coalesced,
                }
            finally:
                server.shutdown()
                server.server_close()
                engine.close()
                thread.join()

        co_t, co = _timed(_service_coalesced, max(1, repeats // 2))
        engines["service.coalesced"] = {
            "median_s": co_t, "n_clients": n_clients,
            "executed": co["executed"], "coalesced": co["coalesced"],
        }

    if _want("service.overload"):
        from repro.exceptions import ServiceOverloaded

        n_burst = 8 if quick else 16
        overload_capacity = 2
        overload_nd = 500 if quick else 3000

        def _overload_task(i: int) -> dict:
            # Distinct seeds → distinct digests: neither the coalescing
            # queue nor the memo may absorb the burst, every admitted
            # request is real work and every excess one must be shed.
            return {
                "system": {
                    "kind": "single_communication",
                    "params": {"u": 3, "v": 3},
                },
                "solver": "simulation", "model": "overlap",
                "options": {"n_datasets": overload_nd, "seed": 100 + i},
            }

        def _service_overload() -> dict:
            """Burst M > capacity; record shed count and per-request latency."""
            engine = EvaluationEngine()
            server, thread = serve_in_thread(
                engine, capacity=overload_capacity, retry_after=0.05
            )
            barrier = threading.Barrier(n_burst)
            latencies = [0.0] * n_burst
            accepted = [False] * n_burst

            def _one_client(i: int) -> None:
                # No retry policy: a shed request records its instant
                # rejection, not a masked second attempt.
                with ServiceClient(*server.endpoint, retry=None) as client:
                    client.ping()  # connect before the synchronized burst
                    barrier.wait()
                    t0 = time.perf_counter()
                    try:
                        client.evaluate(_overload_task(i))
                        accepted[i] = True
                    except ServiceOverloaded:
                        pass
                    latencies[i] = time.perf_counter() - t0

            try:
                workers = [
                    threading.Thread(target=_one_client, args=(i,))
                    for i in range(n_burst)
                ]
                for w in workers:
                    w.start()
                for w in workers:
                    w.join()
                return {
                    "shed": server.shed,
                    "accepted": sum(accepted),
                    "latencies": latencies,
                }
            finally:
                server.shutdown()
                server.server_close()
                engine.close()
                thread.join()

        ov_t, ov = _timed(_service_overload, max(1, repeats // 2))
        lat = np.asarray(ov["latencies"])
        engines["service.overload"] = {
            "median_s": ov_t, "n_clients": n_burst,
            "capacity": overload_capacity,
            "accepted": ov["accepted"], "shed": ov["shed"],
            "shed_rate": ov["shed"] / n_burst,
            "p50_s": float(np.percentile(lat, 50)),
            "p99_s": float(np.percentile(lat, 99)),
        }

    # -- fleet: single worker vs affinity-sharded quad ------------------
    if _want("service.fleet.single", "service.fleet.quad"):
        from repro.service import local_fleet

        # A cyclic trace over K distinct structures with each worker's
        # structure cache LRU-bounded to B < K: one worker thrashes
        # (every revisit re-explores and re-solves), while 4
        # fingerprint-affinity shards each hold their ~K/4 keys hot —
        # on one core the fleet speedup is aggregate cache capacity,
        # not CPU parallelism. K ≡ 2 (mod 4) keeps round_robin honest:
        # the rotation never re-aligns a key with one worker, so the
        # same trace scatters repeats and pays extra cold misses —
        # that is the affinity-vs-round_robin hit-rate comparison.
        if quick:
            fleet_pairs = [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3)]
            fleet_bound, fleet_rounds = 3, 2
        else:
            # Interleaved so the odd (exponential/strict) slots land on
            # the mid-cost topologies (~0.05-0.3 s each): revisits are
            # dominated by recomputation, not socket round-trips.
            fleet_pairs = [
                (2, 3), (2, 5), (3, 2), (5, 2), (2, 4), (3, 4), (4, 2),
                (4, 3), (3, 3), (2, 6), (5, 5), (6, 2), (2, 2), (4, 4),
            ]
            fleet_bound, fleet_rounds = 7, 3
        fleet_tasks = [
            {
                "system": {
                    "kind": "single_communication",
                    "params": {"u": u, "v": v, "comm_time": 1.0},
                },
                # Alternate a cheap and an expensive solver so the trace
                # mixes both cost classes across every shard.
                "solver": "deterministic" if i % 2 == 0 else "exponential",
                "model": "overlap" if i % 2 == 0 else "strict",
                "options": {},
            }
            for i, (u, v) in enumerate(fleet_pairs)
        ]
        # Mixed single-evaluate and batch ops, issued sequentially from
        # one client: coalescing-free by construction (no two identical
        # requests are ever in flight together).
        if quick:
            fleet_groups = [slice(0, 2), 2, 3, slice(4, 6)]
        else:
            fleet_groups = [slice(0, 4), 4, 5, slice(6, 10), 10, 11,
                            slice(12, 14)]

        def _run_fleet(n_workers: int, strategy: str) -> dict:
            """One full fleet lifetime over the cyclic trace."""
            values: list = []
            with local_fleet(
                n_workers, strategy=strategy, max_entries=fleet_bound
            ) as fleet:
                with fleet.client() as client:
                    for _ in range(fleet_rounds):
                        for group in fleet_groups:
                            if isinstance(group, slice):
                                vals, fails, _stats = client.evaluate_batch(
                                    fleet_tasks[group]
                                )
                                assert not fails
                                values.extend(vals)
                            else:
                                values.append(
                                    client.evaluate(fleet_tasks[group])
                                )
                    stats = client.stats()
            cache = stats["structure_cache"]
            return {
                "values": values,
                "executed": stats["totals"]["executed"],
                "hits": cache["hits"],
                "misses": cache["misses"],
                "hit_rate": cache["hit_rate"],
            }

        fleet_units = fleet_rounds * len(fleet_pairs)
        single_t, single = _timed(
            partial(_run_fleet, 1, "fingerprint_affinity"),
            max(1, repeats // 2),
        )
        engines["service.fleet.single"] = {
            "median_s": single_t, "n_workers": 1,
            "units": fleet_units,
            "distinct_structures": len(fleet_pairs),
            "max_entries": fleet_bound,
            "executed": single["executed"],
            "structure_hit_rate": single["hit_rate"],
        }
        quad_t, quad = _timed(
            partial(_run_fleet, 4, "fingerprint_affinity"),
            max(1, repeats // 2),
        )
        # Same trace through round_robin (untimed): the hit-rate
        # comparison isolates routing quality from wall-clock noise.
        rr = _run_fleet(4, "round_robin")
        engines["service.fleet.quad"] = {
            "median_s": quad_t, "n_workers": 4,
            "units": fleet_units,
            "distinct_structures": len(fleet_pairs),
            "max_entries": fleet_bound,
            "executed": quad["executed"],
            "affinity_hit_rate": quad["hit_rate"],
            "round_robin_hit_rate": rr["hit_rate"],
            "round_robin_executed": rr["executed"],
            "affinity_beats_round_robin": quad["hit_rate"] > rr["hit_rate"],
            "values_identical_to_single": quad["values"] == single["values"],
        }

    if _want("service.selfheal"):
        from repro.service import local_fleet

        # Kill-every-k chaos against a supervised fleet. The clean pass
        # times the trace on a healthy fleet; the chaos pass abruptly
        # kills a worker every `heal_kill_every` batches (cycling the
        # victim) and blocks until the supervisor has respawned it, so
        # the measured wall time *includes* every recovery. Recovery is
        # the kill -> respawn latency; goodput retained is clean/chaos
        # wall time; the values must match the clean pass exactly —
        # supervised respawn, breaker probes and re-dispatch must never
        # lose or duplicate a unit.
        if quick:
            heal_pairs = [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3)]
            heal_rounds = 2
        else:
            heal_pairs = [
                (2, 3), (2, 5), (3, 2), (5, 2), (2, 4), (3, 4), (4, 2),
                (4, 3), (3, 3), (2, 6), (5, 5), (6, 2), (2, 2), (4, 4),
            ]
            heal_rounds = 3
        heal_tasks = [
            {
                "system": {
                    "kind": "single_communication",
                    "params": {"u": u, "v": v, "comm_time": 1.0},
                },
                "solver": "deterministic",
                "model": "overlap",
                "options": {},
            }
            for (u, v) in heal_pairs
        ]
        heal_batch = 2
        heal_kill_every = 3

        def _run_selfheal(chaos: bool) -> dict:
            values: list = []
            recoveries: list[float] = []
            batches = 0
            victim = 1
            with local_fleet(
                4,
                strategy="fingerprint_affinity",
                breaker_cooldown_s=0.05,
            ) as fleet:
                supervisor = fleet.make_supervisor(
                    check_interval=0.02, max_restarts=1000,
                )
                supervisor.start()
                with fleet.client() as client:
                    for _ in range(heal_rounds):
                        for start in range(0, len(heal_tasks), heal_batch):
                            if (
                                chaos and batches
                                and batches % heal_kill_every == 0
                            ):
                                name = f"w{victim}"
                                victim = victim % 3 + 1  # cycle w1..w3
                                before = supervisor.respawns
                                t0 = time.monotonic()
                                fleet.kill_worker(name)
                                deadline = t0 + 30.0
                                while supervisor.respawns == before:
                                    if time.monotonic() > deadline:
                                        raise RuntimeError(
                                            f"supervisor never respawned "
                                            f"{name}"
                                        )
                                    time.sleep(0.005)
                                recoveries.append(time.monotonic() - t0)
                            vals, fails, _stats = client.evaluate_batch(
                                heal_tasks[start:start + heal_batch]
                            )
                            assert not fails
                            values.extend(vals)
                            batches += 1
                    stats = client.stats()
            orch = stats["orchestrator"]
            return {
                "values": values,
                "failovers": orch["failovers"],
                "respawns": stats["supervisor"]["respawns"],
                "recoveries": recoveries,
            }

        heal_units = heal_rounds * len(heal_pairs)
        clean_t, clean = _timed(
            partial(_run_selfheal, False), max(1, repeats // 2)
        )
        chaos_t, chaos = _timed(
            partial(_run_selfheal, True), max(1, repeats // 2)
        )
        engines["service.selfheal"] = {
            "median_s": chaos_t,
            "clean_s": clean_t,
            "n_workers": 4,
            "units": heal_units,
            "kill_every_batches": heal_kill_every,
            "kills": len(chaos["recoveries"]),
            "respawns": chaos["respawns"],
            "recovery_p50_s": (
                statistics.median(chaos["recoveries"])
                if chaos["recoveries"] else None
            ),
            "recovery_max_s": (
                max(chaos["recoveries"]) if chaos["recoveries"] else None
            ),
            "failovers": chaos["failovers"],
            "goodput_clean_units_per_s": heal_units / max(clean_t, 1e-12),
            "goodput_chaos_units_per_s": heal_units / max(chaos_t, 1e-12),
            "goodput_retained": clean_t / max(chaos_t, 1e-12),
            "values_identical_to_clean": chaos["values"] == clean["values"],
            "no_lost_or_duplicated_units": (
                len(chaos["values"]) == heal_units
            ),
        }

    if not engines:
        raise ValueError(
            f"--workloads {list(selected)!r} matched no benchmark engine"
        )

    def _ratio(num: str, den: str) -> float:
        return engines[num]["median_s"] / max(engines[den]["median_s"], 1e-12)

    #: slower / faster engine per speedup key — ratios are only reported
    #: for pairs the (possibly filtered) run actually timed.
    ratio_pairs = {
        "reachability": ("reachability.reference", "reachability.vectorized"),
        "sim": ("sim.reference", "sim.fast"),
        "replicate": ("replicate.serial", "replicate.parallel"),
        "replication": ("replication.loop", "replication.vectorized"),
        "search": ("search.uncached", "search.memoized"),
        "evaluate_many.strict": ("evaluate_many.strict.uncached",
                                 "evaluate_many.strict.cached"),
        "campaign.resume": ("campaign.cold", "campaign.resume"),
        "service.warm_restart": ("service.cold", "service.warm"),
        "service.fleet": ("service.fleet.single", "service.fleet.quad"),
    }
    return {
        "meta": {
            "bench": "engine microbenchmarks",
            "quick": quick,
            "repeats": repeats,
            "workloads": list(selected),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "git_revision": _git_revision(),
        },
        "engines": engines,
        "speedups": {
            key: _ratio(num, den)
            for key, (num, den) in ratio_pairs.items()
            if num in engines and den in engines
        },
    }


def write_report(report: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def render_report(report: dict) -> str:
    lines = ["engine                       median_s      scale"]
    for name, row in sorted(report["engines"].items()):
        scale = {k: v for k, v in row.items() if k != "median_s"}
        detail = ", ".join(f"{k}={v}" for k, v in scale.items())
        lines.append(f"{name:28s} {row['median_s']:9.4f}      {detail}")
    lines.append("")
    for key, ratio in sorted(report["speedups"].items()):
        lines.append(f"speedup[{key}] = {ratio:.2f}x")
    return "\n".join(lines)
