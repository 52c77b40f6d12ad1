"""Tests for the experiment drivers (scaled-down configurations).

Each driver must run end to end and reproduce the paper's qualitative
shape; ``repro.cli run <experiment>`` runs the full-size campaigns.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    ALL_EXPERIMENTS,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    fig17,
    table1,
    timing,
)
from repro.experiments.common import ExperimentResult


class TestCommon:
    def test_render(self):
        r = ExperimentResult("x", "demo", columns=["a", "b"])
        r.add(a=1, b=2.5)
        r.notes.append("hello")
        text = r.render()
        assert "demo" in text and "2.5" in text and "note: hello" in text

    def test_column_extraction(self):
        r = ExperimentResult("x", "demo", columns=["a"])
        r.add(a=1)
        r.add(a=2)
        assert r.column("a") == [1, 2]

    def test_dict_round_trip(self):
        import json

        r = ExperimentResult("x", "demo", columns=["a", "b"])
        r.add(a=1, b=2.5)
        r.add(a=3, b=-1.0)
        r.notes.append("hello")
        again = ExperimentResult.from_dict(json.loads(json.dumps(r.to_dict())))
        assert again == r
        assert again.render() == r.render()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="bogus"):
            ExperimentResult.from_dict(
                {"name": "x", "description": "d", "columns": [], "bogus": 1}
            )

    def test_from_dict_rejects_missing_keys(self):
        with pytest.raises(ValueError, match="columns"):
            ExperimentResult.from_dict({"name": "x", "description": "d"})


class TestRegistry:
    def test_names_and_lookup(self):
        from repro.experiments import (
            experiment_description,
            experiment_names,
            get_experiment,
        )

        names = experiment_names()
        assert "fig10" in names and "table1" in names
        assert set(names) == set(ALL_EXPERIMENTS)
        assert get_experiment("fig10") is fig10
        assert experiment_description("fig10").startswith("Figure 10")
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("fig99")

    def test_register_requires_run(self):
        import types

        from repro.experiments import register_experiment

        with pytest.raises(TypeError, match="run"):
            register_experiment("broken", types.ModuleType("broken"))


class TestTable1:
    def test_scaled_run_shape(self):
        cfg = table1.scaled_config(0.02, seed=1)
        cfg.classes = cfg.classes[:2] + cfg.classes[6:8]
        res = table1.run(cfg)
        assert len(res.rows) == len(cfg.classes) * 2
        # The paper's headline: Overlap never lacks a critical resource.
        overlap_rows = [r for r in res.rows if r["model"] == "overlap"]
        assert all(r["no_critical"] == 0 for r in overlap_rows)
        # Gaps stay bounded (paper: < 9%; allow slack for other fixtures).
        assert all(r["max_gap_pct"] <= 15.0 for r in res.rows)

    def test_counts_within_totals(self):
        cfg = table1.scaled_config(0.02, seed=2)
        cfg.classes = cfg.classes[:1]
        res = table1.run(cfg)
        for r in res.rows:
            assert 0 <= r["no_critical"] <= r["total"]


class TestFig10:
    def test_convergence(self):
        cfg = fig10.Fig10Config(dataset_counts=[100, 2000, 20_000])
        res = fig10.run(cfg)
        last = res.rows[-1]
        assert last["cst_system"] == pytest.approx(last["cst_theory"], rel=0.01)
        assert last["exp_system"] == pytest.approx(last["exp_theory"], rel=0.05)

    def test_paper_system_structure(self):
        mp = fig10.paper_system()
        assert mp.replication == (1, 3, 4, 5, 6, 7, 1)


class TestFig11:
    def test_dispersion_shrinks(self):
        cfg = fig11.Fig11Config(
            dataset_counts=[50, 500, 5000], n_replications=40
        )
        res = fig11.run(cfg)
        stds = [r["rel_std_pct"] for r in res.rows]
        assert stds[0] > stds[-1]
        # Paper: ~2% at 5,000 data sets.
        assert stds[-1] < 5.0
        for r in res.rows:
            assert r["min"] <= r["avg"] <= r["max"]


class TestFig12:
    def test_flat_in_stage_count(self):
        cfg = fig12.Fig12Config(link_counts=[1, 3, 6], n_datasets=6000)
        res = fig12.run(cfg)
        theories = res.column("exp_theory")
        assert max(theories) == pytest.approx(min(theories), rel=1e-9)
        # Chains of *equal-rate* exponential components sit on a
        # null-recurrent boundary: finite-run estimates converge like
        # 1/sqrt(n), so longer chains read a few percent low. The paper's
        # own Fig. 12 shows the same small wobble on a 0.6-1.1 axis.
        sims = res.column("exp_sim_norm")
        assert max(sims) - min(sims) < 0.12


class TestFig13:
    def test_theory_matches_simulation(self):
        cfg = fig13.Fig13Config(
            sides=[(2, 3), (3, 4), (2, 5)], n_datasets=8000
        )
        res = fig13.run(cfg)
        for r in res.rows:
            assert r["exp_sim"] == pytest.approx(r["exp_theory"], rel=0.05)
            assert r["cst_sim"] == pytest.approx(1.0, rel=0.02)


class TestFig14:
    def test_heterogeneity_regimes(self):
        cfg = fig14.Fig14Config(
            sides=[(2, 3), (3, 4)], n_datasets=15_000, tpn_datasets=3000
        )
        res = fig14.run(cfg)
        from repro.core import exponential_to_deterministic_ratio

        for r in res.rows:
            # Constant-time simulations always track the theory.
            assert r["cst_system"] == pytest.approx(1.0, abs=0.02)
            assert r["cst_tpn"] == pytest.approx(1.0, abs=0.02)
            # Simulation validates the exact heterogeneous CTMC value
            # (dominant regimes renew on the single slow link, so the
            # estimator needs a wider band at a given run length).
            assert r["exp_system"] == pytest.approx(r["exp_theory"], rel=0.07)
            hom = exponential_to_deterministic_ratio(r["u"], r["v"])
            if r["mode"] == "dominant":
                # The paper's claim, in the regime its explanation covers.
                assert r["exp_theory"] == pytest.approx(1.0, abs=0.03)
            else:
                # Uniform heterogeneity narrows the gap vs homogeneous.
                assert hom < r["exp_theory"] < 1.0

    def test_exp_theory_skippable(self):
        cfg = fig14.Fig14Config(
            sides=[(2, 3)], n_datasets=2000, tpn_datasets=1000,
            include_exp_theory=False,
        )
        res = fig14.run(cfg)
        assert np.isnan(res.rows[0]["exp_theory"])


class TestFig15:
    def test_ratio_formula(self):
        cfg = fig15.Fig15Config(senders=[2, 4, 5, 7, 10], v=5, n_datasets=8000)
        res = fig15.run(cfg)
        for r in res.rows:
            assert r["exp_theory_norm"] == pytest.approx(
                r["ratio_formula"], rel=1e-9
            )
            assert r["exp_sim_norm"] == pytest.approx(
                r["ratio_formula"], rel=0.06
            )
            assert 0.5 < r["ratio_formula"] <= 1.0

    def test_minimum_near_u_equals_v(self):
        cfg = fig15.Fig15Config(senders=[2, 4, 6, 9, 14], v=5, n_datasets=2000)
        res = fig15.run(cfg)
        ratios = {r["u"]: r["ratio_formula"] for r in res.rows}
        assert ratios[4] < ratios[14]
        assert ratios[6] < ratios[2]


class TestFig16:
    def test_nbue_laws_inside_sandwich(self):
        cfg = fig16.Fig16Config(senders=[3, 4, 7], v=5, n_datasets=8000)
        res = fig16.run(cfg)
        assert all(r["all_inside"] for r in res.rows)


class TestFig17:
    def test_dfr_laws_escape(self):
        cfg = fig17.Fig17Config(senders=[3, 4], v=5, n_datasets=8000)
        res = fig17.run(cfg)
        for r in res.rows:
            # Genuinely non-N.B.U.E. laws dip below the exponential bound.
            assert r["gamma(shape=0.25)"] < r["lower_exp"] * 0.97
            assert r["hyperexponential(cv2=6)"] < r["lower_exp"] * 0.97
            # N.B.U.E. members of the sweep stay inside.
            assert r["gamma(shape=2)"] >= r["lower_exp"] * 0.97
            assert r["uniform(rel_half_width=0.5)"] >= r["lower_exp"] * 0.97


class TestTiming:
    def test_reports_positive_times(self):
        cfg = timing.TimingConfig(dataset_counts=[100, 1000])
        res = timing.run(cfg)
        assert len(res.rows) == 2
        assert all(r["system_sim_s"] > 0 for r in res.rows)
        assert all(r["tpn_sim_s"] > 0 for r in res.rows)


class TestCli:
    def test_list(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ALL_EXPERIMENTS:
            assert name in out

    def test_run_scaled(self, capsys):
        from repro.cli import main

        assert main(["run", "fig15", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "fig15" in out and "ratio_formula" in out
