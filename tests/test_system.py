"""Tests for the StreamingSystem façade and the public package surface."""

from __future__ import annotations

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
        # scipy.stats takes about a second to import; the laws that need
        # it import it when they are built, so start-up does not pay it.
        # networkx is likewise imported only by the analysis helpers.
        src = str(Path(repro.__file__).resolve().parents[1])
        code = (
            "import sys, repro, repro.cli; "
            "print('scipy.stats' in sys.modules); "
            "print('networkx' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        stats_loaded, networkx_loaded = out.stdout.split()
        assert stats_loaded == "False"
        assert networkx_loaded == "False"


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
