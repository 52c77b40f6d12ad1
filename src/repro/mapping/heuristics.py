"""Mapping heuristics scored through the unified solver subsystem.

The paper's conclusion (Section 8) motivates exactly this layer: the
mapping-optimization problem is NP-complete even deterministically [3],
but with the Sections 4-5 evaluators one can *score* candidate mappings
exactly and compare heuristics fairly. This module provides:

* :func:`balanced_replication` — a work-proportional replication baseline
  (heavier stages get more processors, fastest processors first);
* :func:`greedy_hill_climb` — local search over grow/swap moves;
* :func:`random_restart_search` — the classic multi-start wrapper.

Scoring goes through :func:`repro.evaluate.evaluate_many`: each step's
whole neighbourhood is scored in one batch (fanning over ``n_jobs``
workers when asked) against a shared
:class:`~repro.evaluate.cache.StructureCache`, so no candidate — nor any
throughput-isomorphic relabelling of one — is ever evaluated twice.
:class:`SearchResult` reports the memo traffic (``cache_hits`` vs
``cache_misses``). The selection rule is unchanged from the serial
implementation (first improving neighbour in generation order), so fixed
seeds reproduce the exact pre-batching trajectories and optima.

All heuristics take a ``mode`` — a solver name from
:func:`repro.evaluate.available_solvers`; ``"deterministic"`` and
``"exponential"`` match the paper's evaluators (scoring by the
exponential evaluator optimizes the Theorem 7 *floor*, i.e. the
throughput guaranteed under any N.B.U.E. variability).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.application.chain import Application
from repro.evaluate import StructureCache, evaluate_many, solver_options
from repro.exceptions import InvalidMappingError
from repro.mapping.generators import random_mapping
from repro.mapping.mapping import Mapping
from repro.platform.topology import Platform


@dataclass(frozen=True)
class SearchResult:
    """Best mapping found, its score, and the evaluator traffic.

    ``evaluations`` counts score *requests*; ``cache_misses`` of them
    reached an actual evaluator run, ``cache_hits`` were served by the
    fingerprint memo (``evaluations = cache_hits + cache_misses``).
    """

    mapping: Mapping
    throughput: float
    evaluations: int
    cache_hits: int = 0
    cache_misses: int = 0


def _batch_score(
    mappings: list[Mapping],
    mode: str,
    max_states: int,
    cache: StructureCache,
    n_jobs: int,
) -> list[float]:
    # Forward max_states only to backends that take it (the simulation
    # solver, for one, does not).
    options = (
        {"max_states": max_states}
        if "max_states" in solver_options(mode)
        else {}
    )
    return evaluate_many(
        mappings,
        solver=mode,
        model="overlap",
        cache=cache,
        n_jobs=n_jobs,
        **options,
    )


def balanced_replication(
    application: Application,
    platform: Platform,
    *,
    mode: str = "deterministic",
    max_states: int = 200_000,
    cache: StructureCache | None = None,
) -> SearchResult:
    """Work-proportional baseline.

    Replication budget per stage proportional to ``w_i`` (at least 1,
    total ≤ M); the fastest processors are dealt to the heaviest stages.
    A sensible baseline for the search heuristics to beat (or match).
    """
    n, m = application.n_stages, platform.n_processors
    if m < n:
        raise InvalidMappingError(f"need M >= N, got M={m} N={n}")
    work = application.works
    reps = np.maximum(1, np.floor(work / work.sum() * m).astype(int))
    # Trim overshoot from the least-loaded stages, never below one
    # replica: an empty team would be an invalid mapping, so stages
    # already at R_i = 1 are skipped and the next-least-loaded one pays.
    while reps.sum() > m:
        load = np.where(reps > 1, work / reps, np.inf)
        reps[int(np.argmin(load))] -= 1
    # Deal fastest processors to the stages with the highest per-replica load.
    order = np.argsort(-platform.speeds)  # fastest first
    stage_order = np.argsort(-(work / reps))
    teams: list[list[int]] = [[] for _ in range(n)]
    cursor = 0
    for s in stage_order:
        teams[int(s)] = [int(p) for p in order[cursor : cursor + reps[s]]]
        cursor += int(reps[s])
    mapping = Mapping(application, platform, teams)
    cache = cache if cache is not None else StructureCache()
    hits0, misses0 = cache.hits, cache.misses
    [rho] = _batch_score([mapping], mode, max_states, cache, 1)
    return SearchResult(
        mapping,
        rho,
        evaluations=1,
        cache_hits=cache.hits - hits0,
        cache_misses=cache.misses - misses0,
    )


def _try_mapping(mapping: Mapping, teams: list[list[int]]) -> Mapping | None:
    """Construct a neighbour, or ``None`` when the move is invalid.

    Moves generated from a *valid* mapping always construct; tolerating
    :class:`InvalidMappingError` keeps the neighbourhood total on
    degenerate inputs (e.g. an externally built mapping with an empty
    team) instead of crashing mid-search.
    """
    try:
        return Mapping(mapping.application, mapping.platform, teams)
    except InvalidMappingError:
        return None


def _neighbours(mapping: Mapping, rng: np.random.Generator) -> list[Mapping]:
    """Grow-with-idle and swap moves around a mapping."""
    out: list[Mapping | None] = []
    used = set(mapping.used_processors)
    idle = [p for p in range(mapping.platform.n_processors) if p not in used]
    teams = [list(t) for t in mapping.teams]
    for i in range(len(teams)):
        for p in idle[:3]:
            grown = [list(t) for t in teams]
            grown[i].append(p)
            out.append(_try_mapping(mapping, grown))
    for _ in range(8):
        i, j = (int(x) for x in rng.integers(len(teams), size=2))
        if i == j:
            continue
        if not teams[i] or not teams[j]:
            # Degenerate swap (empty team): skip instead of crashing on
            # ``rng.integers(0)``; validated mappings never hit this, but
            # ill-formed inputs should degrade to "no move".
            continue
        a = int(rng.integers(len(teams[i])))
        b = int(rng.integers(len(teams[j])))
        swapped = [list(t) for t in teams]
        swapped[i][a], swapped[j][b] = swapped[j][b], swapped[i][a]
        out.append(_try_mapping(mapping, swapped))
    return [m for m in out if m is not None]


def greedy_hill_climb(
    application: Application,
    platform: Platform,
    *,
    mode: str = "deterministic",
    seed: int = 0,
    max_steps: int = 60,
    start: Mapping | None = None,
    max_states: int = 200_000,
    n_jobs: int = 1,
    cache: StructureCache | None = None,
) -> SearchResult:
    """First-improvement local search from a random (or given) start.

    Each step scores the whole neighbourhood in one
    :func:`~repro.evaluate.evaluate_many` batch (over ``n_jobs`` workers)
    and then moves to the first improving neighbour in generation order —
    the same trajectory the one-at-a-time implementation followed.
    """
    rng = np.random.default_rng(seed)
    current = (
        start
        if start is not None
        else random_mapping(application, platform, rng, max_replication=4)
    )
    cache = cache if cache is not None else StructureCache()
    hits0, misses0 = cache.hits, cache.misses
    evals = 1
    [best] = _batch_score([current], mode, max_states, cache, 1)
    # Serially the neighbourhood is streamed one candidate at a time —
    # the exact request stream (and early stop) of the pre-batching
    # implementation, so the memo can only *remove* evaluator runs. With
    # workers, whole chunks are scored per evaluate_many call; the first
    # improving neighbour in generation order wins either way, so the
    # trajectory is independent of the chunking.
    for _ in range(max_steps):
        cands = _neighbours(current, rng)
        if not cands:
            break
        chunk = len(cands) if n_jobs > 1 else 1
        improved = False
        for lo in range(0, len(cands), chunk):
            part = cands[lo : lo + chunk]
            scores = _batch_score(part, mode, max_states, cache, n_jobs)
            evals += len(part)
            for cand, rho in zip(part, scores):
                # A move needs a relative gain above 1e-12. Ties are the
                # rule, since a move that misses the slowest component
                # leaves the throughput as it was: in 500 climbs from
                # Table 1 census draws (seed 2010), 30 536 of 37 150
                # neighbours tied the best exactly and 3 more by
                # round-off, at most 1.1e-16, while the smallest gain
                # taken was 2.3e-5. The threshold sits between the two,
                # so a round-off tie never moves the search.
                if rho > best * (1 + 1e-12):
                    current, best = cand, rho
                    improved = True
                    break
            if improved:
                break
        if not improved:
            break
    return SearchResult(
        current,
        best,
        evaluations=evals,
        cache_hits=cache.hits - hits0,
        cache_misses=cache.misses - misses0,
    )


def random_restart_search(
    application: Application,
    platform: Platform,
    *,
    mode: str = "deterministic",
    n_restarts: int = 5,
    seed: int = 0,
    max_states: int = 200_000,
    n_jobs: int = 1,
    cache: StructureCache | None = None,
) -> SearchResult:
    """Multi-start hill climbing; also seeds one run from the baseline.

    All restarts share one structure cache, so revisited (or
    throughput-isomorphic) candidates across runs cost nothing — the
    baseline mapping, re-scored as the first climb's start, is already a
    guaranteed cache hit.
    """
    cache = cache if cache is not None else StructureCache()
    hits0, misses0 = cache.hits, cache.misses
    best: SearchResult | None = None
    evals = 0
    baseline = balanced_replication(
        application, platform, mode=mode, max_states=max_states, cache=cache
    )
    evals += baseline.evaluations
    seeds: list[Mapping | None] = [baseline.mapping] + [None] * n_restarts
    for k, start in enumerate(seeds):
        result = greedy_hill_climb(
            application,
            platform,
            mode=mode,
            seed=seed + k,
            start=start,
            max_states=max_states,
            n_jobs=n_jobs,
            cache=cache,
        )
        evals += result.evaluations
        if best is None or result.throughput > best.throughput:
            best = result
    assert best is not None
    return SearchResult(
        best.mapping,
        best.throughput,
        evaluations=evals,
        cache_hits=cache.hits - hits0,
        cache_misses=cache.misses - misses0,
    )
