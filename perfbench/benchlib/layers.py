"""The traced run's layer map.

``HOOKS`` lists, per layer, the program names the traced run wraps, at
the name their callers look up. ``layer_metrics`` turns the spans and
counters of the traced rounds into the per-layer metrics BENCHMARK.json
lists. A layer that a workload does not load reads 0.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from benchlib.tracer import Hook, Span, Tracer, layer_busy

BUSY = ".busy_s"


def _arcs(args, kwargs, result):
    return {"maxplus.cycle_ratio.arcs": args[0].n_arcs}


def _explored(args, kwargs, result):
    return {"petri.explore.states": result.n_states}


def _solved(args, kwargs, result):
    chain = args[0]
    return {
        "markov.solve.states": chain.n_states,
        "markov.solve.nnz": chain.rate_matrix.nnz,
    }


def _simulated(args, kwargs, result):
    return {"sim.simulate.datasets": kwargs["n_datasets"]}


def _reach_request(args, kwargs, result):
    return {"evaluate.cache.reach_requests": 1}


HOOKS = (
    # The critical-cycle kernel, reached from the Strict net path and
    # from the Overlap communication patterns.
    Hook("maxplus.cycle_ratio", "repro.core.deterministic:max_cycle_ratio", _arcs),
    Hook("maxplus.cycle_ratio", "repro.core.pattern:max_cycle_ratio", _arcs),
    Hook("core.overlap", "repro.core.critical:overlap_throughput"),
    Hook("core.overlap", "repro.core.components:overlap_throughput"),
    Hook("mapping.resources", "repro.core.critical:max_cycle_time"),
    Hook("mapping.resources", "repro.core.critical:critical_resource"),
    Hook("mapping.draw", "repro.application.generators:random_application"),
    Hook("mapping.draw", "repro.platform.generators:random_platform"),
    Hook("mapping.draw", "repro.mapping.generators:random_mapping"),
    Hook("petri.build", "repro.core.critical:build_strict_tpn"),
    Hook("petri.build", "repro.petri.builder_strict:build_strict_tpn"),
    Hook("petri.condensation", "repro.core.deterministic:condensation_edges"),
    Hook("petri.condensation", "repro.core.deterministic:subnet"),
    Hook("petri.token_graph", "repro.petri.net:TimedEventGraph.to_token_graph"),
    Hook("petri.explore", "repro.petri.reachability:explore", _explored),
    Hook("petri.explore", "repro.markov.builder:explore", _explored),
    Hook("markov.build", "repro.markov.builder:ctmc_from_tpn"),
    Hook("markov.solve", "repro.markov.ctmc:CTMC.stationary_distribution", _solved),
    # The evaluate front doors, the solver dispatch and the structure
    # cache share one layer: its self time is the evaluate overhead.
    Hook("evaluate.solve", "repro.evaluate.batch:evaluate"),
    Hook("evaluate.solve", "repro.evaluate.batch:evaluate_many"),
    Hook("evaluate.solve", "repro.evaluate.solvers:DeterministicSolver.solve"),
    Hook("evaluate.solve", "repro.evaluate.solvers:ExponentialSolver.solve"),
    Hook(
        "evaluate.solve",
        "repro.evaluate.cache:StructureCache.reachability",
        _reach_request,
    ),
    Hook("sim.simulate", "repro.sim.system_sim:simulate_system", _simulated),
)

#: The layer each workload's traced run should find busiest.
PREDICTED_TOP = {
    "table1": "maxplus.cycle_ratio",
    "strict-exp": "markov.solve",
    "fig13": "sim.simulate",
    "fleet": "service outside worker execute",
}


def counted(tracer: Tracer) -> dict[str, float]:
    """The tracer's counters plus the ratios derived from them."""
    values = dict(tracer.counters)
    # Every exploration of the in-process workloads is requested through
    # the structure cache, so the explorations saved are the requests
    # that found a cached marking graph.
    requests = values.get("evaluate.cache.reach_requests", 0)
    explorations = values.get("petri.explore.calls", 0)
    values["evaluate.cache.reach_reuse_ratio"] = (
        1.0 - explorations / requests if requests else 0.0
    )
    return values


def layer_metrics(
    names: Iterable[str], spans: Sequence[Span], values: dict[str, float]
) -> dict[str, float]:
    """The per-layer metrics ``names``.

    A name ending in ``.busy_s`` is the self time of the spans of the
    layer it prefixes; every other name is read from ``values``
    (counters, derived ratios, service deltas). A missing value reads 0.
    """
    busy = layer_busy(spans)
    return {
        name: busy.get(name[: -len(BUSY)], 0.0) if name.endswith(BUSY) else values.get(name, 0)
        for name in names
    }


def busiest(metrics: dict[str, float]) -> tuple[str, float]:
    """The layer with the largest busy time, and that time."""
    return max(
        ((name[: -len(BUSY)], value) for name, value in metrics.items() if name.endswith(BUSY)),
        key=lambda item: item[1],
    )
