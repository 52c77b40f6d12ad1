"""Micro-benchmarks of the algorithmic engines (not tied to one figure).

Measures the four throughput engines on a fixed mid-size system so
regressions in any layer are visible: the (max,+) cycle solver, the
symbolic decomposition, the pattern CTMC, and the marking-chain method.
"""

from __future__ import annotations

import pytest

from repro.core import (
    overlap_throughput,
    pattern_throughput_exponential,
    strict_exponential_throughput,
)
from repro.core.pattern import CommPattern
from repro.experiments.fig10 import paper_system
from repro.maxplus import max_cycle_ratio
from repro.petri import build_overlap_tpn

from _util import make_mapping


def test_max_cycle_ratio_speed(benchmark):
    tpn = build_overlap_tpn(paper_system())
    graph = tpn.to_token_graph()
    result = benchmark(max_cycle_ratio, graph)
    assert result is not None and result.ratio > 0


def test_dater_evolution_speed(benchmark):
    """The third evaluator: exact dater recursion over 200 rounds."""
    from repro.maxplus import dater_throughput
    from repro.core import overlap_throughput

    mp = paper_system()
    tpn = build_overlap_tpn(mp)
    est = benchmark.pedantic(
        dater_throughput, args=(tpn, 200), rounds=1, iterations=1
    )
    # The dater realizes the unbounded (no back-pressure) semantics.
    ref = overlap_throughput(mp, "deterministic")
    assert est == pytest.approx(ref, rel=0.05)


def test_symbolic_deterministic_speed(benchmark):
    mp = paper_system()
    rho = benchmark(overlap_throughput, mp, "deterministic")
    assert rho > 0


def test_symbolic_exponential_speed(benchmark):
    mp = paper_system()
    rho = benchmark(overlap_throughput, mp, "exponential")
    assert rho > 0


def test_heterogeneous_pattern_ctmc_speed(benchmark):
    import numpy as np

    rng = np.random.default_rng(0)
    means = tuple(rng.uniform(0.5, 2.0, 20).tolist())
    pattern = CommPattern(4, 5, means)
    rho = benchmark(pattern_throughput_exponential, pattern)
    assert rho > 0


def test_strict_marking_chain_speed(benchmark):
    mp = make_mapping([[0], [1, 2]], seed=1)
    rho = benchmark(
        strict_exponential_throughput, mp, max_states=400_000
    )
    assert rho > 0
