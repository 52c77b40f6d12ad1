"""Tests for the StreamingSystem façade and the public package surface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import (
    Application,
    ExecutionModel,
    Mapping,
    Platform,
    StreamingSystem,
)
from repro.mapping.examples import single_communication

from tests.conftest import make_mapping


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_quickstart_docstring_flow(self):
        app = Application.from_work([4e9, 8e9, 5e9], files=[1e8, 2e8])
        plat = Platform.homogeneous(6, speed=2e9, bandwidth=1e9)
        mp = Mapping(app, plat, teams=[[0], [1, 2, 3], [4, 5]])
        sys_ = StreamingSystem(mp, model="overlap")
        det = sys_.deterministic_throughput()
        exp = sys_.exponential_throughput()
        assert 0 < exp <= det

    def test_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats takes about 0.7 s to import; the laws that need it
        # import it when they are built, and the replication CI uses the
        # standard library's quantile, so start-up and replication
        # studies do not pay it. networkx is imported only by the
        # analysis helpers, and scipy.sparse only by the paths that solve
        # a Markov chain, so deterministic work loads neither.
        loaded = json.loads(_run_fresh(_WATCHED_IMPORTS))
        assert loaded == {"import": [], "deterministic": [], "replicate": []}

    def test_chain_paths_resolve_their_deferred_imports(self):
        # Each path that solves a chain imports repro.markov when called.
        # The suite loads repro.markov early, so only a fresh interpreter
        # reaches those imports cold.
        script = (
            "import json, sys, repro\n"
            + _CHAIN_PATHS
            + "cold = 'repro.markov' not in sys.modules\n"
            "values = {k: repr(v) for k, v in chain_values().items()}\n"
            "print(json.dumps({'cold': cold, 'values': values}))\n"
        )
        out = json.loads(_run_fresh(script))
        assert out["cold"]
        namespace: dict = {}
        exec(_CHAIN_PATHS, namespace)
        expected = {k: repr(v) for k, v in namespace["chain_values"]().items()}
        assert out["values"] == expected


def _run_fresh(script: str) -> str:
    """Standard output of ``script`` run in a fresh interpreter."""
    src = str(Path(repro.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout


#: Prints, as JSON, which of the slow imports are loaded after importing
#: the package, after one unit of each deterministic workload shape
#: (Table 1's census in both models, a Fig. 13 pair) and after a
#: replication study.
_WATCHED_IMPORTS = """
import json, sys
import repro, repro.cli

WATCHED = ("scipy.stats", "scipy.sparse", "networkx")
loaded = {"import": [m for m in WATCHED if m in sys.modules]}

import numpy as np
from repro.application.generators import random_application
from repro.core.critical import analyze_critical_resource
from repro.evaluate import evaluate
from repro.mapping.examples import single_communication
from repro.mapping.generators import random_mapping
from repro.platform.generators import random_platform
from repro.sim.runner import ReplicationSpec, replicate
from repro.sim.system_sim import simulate_system

rng = np.random.default_rng(0)
census = random_mapping(
    random_application(4, rng), random_platform(10, rng), rng, max_replication=4
)
for model in ("overlap", "strict"):
    analyze_critical_resource(census, model)
pair = single_communication(2, 3)
evaluate(pair, solver="deterministic")
for law in ("deterministic", "exponential"):
    simulate_system(pair, "overlap", n_datasets=200, law=law, seed=0)
loaded["deterministic"] = [m for m in WATCHED if m in sys.modules]

replicate(ReplicationSpec(pair, n_datasets=200), n_replications=4, seed=0)
loaded["replicate"] = [m for m in WATCHED if m in sys.modules]
print(json.dumps(loaded))
"""

#: Defines ``chain_values()``: one call through each path that solves a
#: Markov chain.
_CHAIN_PATHS = """
from repro.core.exponential import (
    exponential_throughput,
    tpn_exponential_throughput_scc,
)
from repro.core.pattern import CommPattern, pattern_throughput_exponential
from repro.mapping.examples import single_communication
from repro.petri import build_overlap_tpn


def chain_values():
    return {
        "strict, connected": exponential_throughput(
            single_communication(2, 3), "strict"
        ),
        "strict, split": exponential_throughput(
            single_communication(2, 2), "strict"
        ),
        "heterogeneous pattern": pattern_throughput_exponential(
            CommPattern(2, 3, (1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
        ),
        "overlap, capacity 1": exponential_throughput(
            single_communication(1, 3), "overlap", buffer_capacity=1
        ),
        "component oracle": tpn_exponential_throughput_scc(
            build_overlap_tpn(single_communication(2, 3))
        ),
    }
"""


class TestFacade:
    def test_model_coercion(self):
        mp = make_mapping([[0]])
        assert StreamingSystem(mp, "strict").model is ExecutionModel.STRICT
        assert (
            StreamingSystem(mp, ExecutionModel.OVERLAP).model
            is ExecutionModel.OVERLAP
        )
        with pytest.raises(ValueError):
            StreamingSystem(mp, "bogus")

    def test_n_paths(self):
        mp = make_mapping([[0], [1, 2], [3, 4, 5]])
        assert StreamingSystem(mp).n_paths == 6

    def test_build_tpn_respects_model(self):
        from repro.petri import is_feed_forward

        mp = make_mapping([[0], [1, 2]])
        assert is_feed_forward(StreamingSystem(mp, "overlap").build_tpn())
        assert not is_feed_forward(StreamingSystem(mp, "strict").build_tpn())

    def test_bounds_and_mct(self):
        mp = single_communication(2, 3)
        s = StreamingSystem(mp, "overlap")
        b = s.throughput_bounds()
        assert b.lower == pytest.approx(1.5) and b.upper == pytest.approx(2.0)
        assert s.max_cycle_time() > 0

    def test_critical_resource_report(self):
        mp = make_mapping([[0], [1]], works=[1.0, 9.0], files=[1.0])
        rep = StreamingSystem(mp, "overlap").critical_resource_report()
        assert rep.critical_proc == 1
        assert rep.has_critical_resource()

    def test_simulate_engines_agree(self):
        mp = single_communication(2, 3)
        s = StreamingSystem(mp, "overlap")
        a = s.simulate(n_datasets=20_000, law="exponential", seed=1)
        b = s.simulate(n_datasets=8_000, law="exponential", seed=1, engine="tpn")
        assert a.steady_state_throughput() == pytest.approx(
            b.steady_state_throughput(), rel=0.05
        )

    def test_simulate_law_params(self):
        mp = single_communication(2, 3)
        s = StreamingSystem(mp, "overlap")
        sim = s.simulate(
            n_datasets=5000, law="gamma", law_params={"shape": 4.0}, seed=2
        )
        assert sim.n_processed == 5000

    def test_simulate_bad_engine(self):
        mp = make_mapping([[0]])
        with pytest.raises(ValueError):
            StreamingSystem(mp).simulate(n_datasets=10, engine="???")

    def test_exponential_options_passthrough(self):
        from repro.core import exponential_throughput

        mp = make_mapping([[0], [1, 2]])
        s = StreamingSystem(mp, "overlap")
        capped = s.exponential_throughput(buffer_capacity=2)
        assert capped == exponential_throughput(
            mp, "overlap", buffer_capacity=2
        )
        assert capped < s.exponential_throughput()
