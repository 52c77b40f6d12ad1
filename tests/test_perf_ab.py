"""Tests for the same-runner A/B gate, ``.github/scripts/perf_ab.py``.

The script is loaded by its path and its one subprocess call,
``run_once``, is replaced with canned benchmark results, so every
verdict is computed from known numbers.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "scripts" / "perf_ab.py"

END_TO_END = [
    {"name": "units_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "unit_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25},
]
BASE_VALUES = {"units_per_s": 100.0, "unit_p90_ms": 10.0}
WORKLOADS = ("table1", "strict-exp", "fig13")


@pytest.fixture
def perf_ab():
    spec = importlib.util.spec_from_file_location("perf_ab", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_tree(path: Path, workloads) -> str:
    path.mkdir()
    (path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 12,
        "workloads": [{"name": w} for w in workloads],
        "end_to_end": END_TO_END,
    }))
    return str(path)


def result(values: dict, correct: bool = True) -> dict:
    return {
        "correct": correct, "attempted": 100, "failed": 0 if correct else 1,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in END_TO_END
        },
    }


def run_gate(perf_ab, monkeypatch, tmp_path, head_run, base_workloads=WORKLOADS):
    """Run the gate with the base at ``BASE_VALUES`` and the head's runs
    from ``head_run(workload, seed) -> (exit code, result)``."""
    base = make_tree(tmp_path / "base", base_workloads)
    head = make_tree(tmp_path / "head", WORKLOADS)
    calls = []

    def fake_run_once(tree, workload, seed, seconds):
        calls.append((tree, workload, seed, seconds))
        if tree == head:
            return head_run(workload, seed)
        return 0, result(BASE_VALUES)

    monkeypatch.setattr(perf_ab, "run_once", fake_run_once)
    out = tmp_path / "out.json"
    code = perf_ab.main([base, head, str(out)])
    return code, json.loads(out.read_text()), calls, base, head


def scaled(name: str, factor: float, workload="table1", seeds=range(1, 6)):
    """Head runs with ``name`` multiplied by ``factor`` on ``workload``
    for ``seeds``, and equal to the base everywhere else."""
    def head_run(w, seed):
        values = dict(BASE_VALUES)
        if w == workload and seed in seeds:
            values[name] *= factor
        return 0, result(values)
    return head_run


def test_a_a_passes_and_out_json_holds_every_pair(perf_ab, monkeypatch, tmp_path, capsys):
    code, out, calls, base, head = run_gate(
        perf_ab, monkeypatch, tmp_path, lambda w, seed: (0, result(BASE_VALUES))
    )
    assert code == 0
    assert out["ok"] is True
    assert "perf-ab: PASS" in capsys.readouterr().out
    # 3 workloads x 5 pairs x 2 sides, seeds 1-5, base first on even pairs.
    assert len(out["runs"]) == len(calls) == 30
    table1 = [(tree, seed) for tree, w, seed, _ in calls if w == "table1"]
    assert table1 == [
        (base, 1), (head, 1), (head, 2), (base, 2), (base, 3), (head, 3),
        (head, 4), (base, 4), (base, 5), (head, 5),
    ]
    assert {seconds for *_, seconds in calls} == {12}
    assert [(r["side"], r["seed"], r["order"]) for r in out["runs"][:4]] == [
        ("base", 1, 0), ("head", 1, 1), ("head", 2, 0), ("base", 2, 1),
    ]
    assert len(out["verdicts"]) == 3 * len(END_TO_END)
    assert all(v["status"] == "ok" for v in out["verdicts"])


@pytest.mark.parametrize(
    "name,factor", [("units_per_s", 0.5), ("unit_p90_ms", 2.0)]
)
def test_2x_worse_in_every_pair_exits_1_and_names_the_metric(
    perf_ab, monkeypatch, tmp_path, capsys, name, factor
):
    code, out, *_ = run_gate(perf_ab, monkeypatch, tmp_path, scaled(name, factor))
    assert code == 1
    text = capsys.readouterr().out
    assert f"REGRESSED table1 {name}" in text
    assert f"regressed: table1 {name}" in text
    regressed = [v for v in out["verdicts"] if v["status"] == "regressed"]
    assert [(v["workload"], v["metric"]) for v in regressed] == [("table1", name)]
    assert regressed[0]["worse_pairs"] == 5
    assert regressed[0]["worse_frac"] == pytest.approx(0.5 if factor < 1 else 1.0)


@pytest.mark.parametrize(
    "name,factor", [("units_per_s", 2.0), ("unit_p90_ms", 0.5)]
)
def test_2x_better_in_every_pair_passes(perf_ab, monkeypatch, tmp_path, name, factor):
    code, out, *_ = run_gate(perf_ab, monkeypatch, tmp_path, scaled(name, factor))
    assert code == 0
    assert all(v["status"] == "ok" for v in out["verdicts"])


@pytest.mark.parametrize("seeds", [{3}, {1, 2, 3}])
def test_worse_in_some_pairs_only_passes(perf_ab, monkeypatch, tmp_path, seeds):
    # With three of five pairs 2x worse the head median is past the bound,
    # but the head is not worse in every pair.
    code, out, *_ = run_gate(
        perf_ab, monkeypatch, tmp_path, scaled("units_per_s", 0.5, seeds=seeds)
    )
    assert code == 0
    verdict = next(
        v for v in out["verdicts"]
        if (v["workload"], v["metric"]) == ("table1", "units_per_s")
    )
    assert verdict["status"] == "ok"
    assert verdict["worse_pairs"] == len(seeds)


@pytest.mark.parametrize(
    "failed_run", [(0, result(BASE_VALUES, correct=False)), (1, None)]
)
def test_a_failed_run_fails_the_gate(perf_ab, monkeypatch, tmp_path, capsys, failed_run):
    def head_run(workload, seed):
        if (workload, seed) == ("fig13", 4):
            return failed_run
        return 0, result(BASE_VALUES)

    code, out, *_ = run_gate(perf_ab, monkeypatch, tmp_path, head_run)
    assert code == 1
    assert out["ok"] is False
    text = capsys.readouterr().out
    assert "fig13 seed 4 (head first)  head FAILED" in text
    assert "perf-ab: FAIL: 1 failed run(s); regressed: none" in text


def test_workload_missing_from_base_is_skipped(perf_ab, monkeypatch, tmp_path):
    code, out, calls, *_ = run_gate(
        perf_ab, monkeypatch, tmp_path,
        lambda w, seed: (0, result(BASE_VALUES)), base_workloads=("table1",),
    )
    assert code == 0
    assert {w for _, w, _, _ in calls} == {"table1"}
    assert out["notes"] == [
        "strict-exp skipped: the base BENCHMARK.json does not list it",
        "fig13 skipped: the base BENCHMARK.json does not list it",
    ]
