"""The benchmark's own arithmetic: percentiles, spreads, span self time,
unattributed time and span nesting, on a patched clock."""

from __future__ import annotations

import os
import statistics
import sys
import threading
import time
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchlib import measure  # noqa: E402
from benchlib.layers import busiest, layer_metrics  # noqa: E402
from benchlib.tracer import (  # noqa: E402
    Hook,
    Span,
    Tracer,
    layer_busy,
    nesting_violations,
    self_times,
    span_rows,
    unattributed_s,
)


class ManualClock:
    """A clock that moves only when the test advances it."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = ManualClock()
    monkeypatch.setattr(time, "perf_counter", fake)
    return fake


@pytest.fixture
def program(monkeypatch, clock):
    """A stand-in program: ``outer`` calls ``inner`` through its module."""
    mod = types.ModuleType("fake_program")

    def inner(n):
        clock.advance(2.0)
        return n

    def outer(n):
        clock.advance(1.0)
        mod.inner(n)
        clock.advance(3.0)
        return n

    class Solver:
        def solve(self, n):
            clock.advance(0.5)
            return n

    def broken():
        clock.advance(0.25)
        raise RuntimeError("boom")

    mod.inner, mod.outer, mod.Solver, mod.broken = inner, outer, Solver, broken
    monkeypatch.setitem(sys.modules, "fake_program", mod)
    return mod


HOOKS = (
    Hook("outer", "fake_program:outer"),
    Hook("inner", "fake_program:inner", lambda args, kwargs, result: {"inner.items": args[0]}),
    Hook("solve", "fake_program:Solver.solve"),
    Hook("broken", "fake_program:broken"),
)


def test_self_time_and_unattributed_on_a_patched_clock(program, clock):
    tracer = Tracer()  # reads the patched time.perf_counter
    tracer.install(HOOKS)
    start = clock()
    clock.advance(0.5)  # benchmark time outside any layer
    program.outer(4)
    program.Solver().solve(1)
    clock.advance(0.5)
    wall = clock() - start
    tracer.uninstall()

    outer, inner, solve = tracer.spans
    assert (outer.start, outer.end) == (100.5, 106.5)
    assert (inner.start, inner.end) == (101.5, 103.5)
    assert inner.parent is outer and solve.parent is None
    assert self_times(tracer.spans) == [4.0, 2.0, 0.5]
    assert layer_busy(tracer.spans) == {"outer": 4.0, "inner": 2.0, "solve": 0.5}
    # wall 7.5 s, top-level spans cover 6.0 + 0.5 s
    assert unattributed_s(wall, tracer.spans) == pytest.approx(1.0)
    assert tracer.counters == {
        "outer.calls": 1, "inner.calls": 1, "inner.items": 4, "solve.calls": 1,
    }
    assert nesting_violations(tracer.spans) == []
    assert span_rows(tracer.spans)[1][3] == 0  # inner's parent is row 0


def test_layer_metrics_follow_the_listed_names(program, clock):
    tracer = Tracer()
    tracer.install(HOOKS)
    program.outer(4)
    tracer.uninstall()
    names = ["outer.busy_s", "inner.busy_s", "solve.busy_s", "inner.items", "absent"]
    metrics = layer_metrics(names, tracer.spans, {**tracer.counters, "absent_too": 9})
    assert metrics == {
        "outer.busy_s": 4.0, "inner.busy_s": 2.0, "solve.busy_s": 0.0,
        "inner.items": 4, "absent": 0,
    }
    assert busiest(metrics) == ("outer", 4.0)


def test_uninstall_restores_every_name(program):
    originals = (program.outer, program.inner, program.Solver.solve, program.broken)
    tracer = Tracer()
    tracer.install(HOOKS)
    assert program.outer is not originals[0]
    tracer.uninstall()
    assert (program.outer, program.inner, program.Solver.solve, program.broken) == originals


def test_a_raising_call_closes_its_span(program, clock):
    tracer = Tracer()
    tracer.install(HOOKS)
    with pytest.raises(RuntimeError):
        program.broken()
    tracer.uninstall()
    (span,) = tracer.spans
    assert span.duration == 0.25
    assert tracer.counters == {"broken.calls": 1}
    assert nesting_violations(tracer.spans) == []


def test_missing_names_are_reported_not_fatal(program):
    tracer = Tracer()
    tracer.install((
        Hook("gone", "fake_program:renamed"),
        Hook("gone", "no_such_module_for_the_benchmark:f"),
        Hook("outer", "fake_program:outer"),
    ))
    tracer.uninstall()
    assert tracer.missing == [
        "fake_program:renamed", "no_such_module_for_the_benchmark:f",
    ]


def test_nesting_check_flags_escaping_and_open_spans():
    parent = Span("p", 0.0, None, None, 1)
    parent.end = 5.0
    escaping = Span("c", 4.0, parent, None, 1)
    escaping.end = 6.0
    other_thread = Span("t", 1.0, parent, None, 2)
    other_thread.end = 2.0
    still_open = Span("o", 1.0, None, None, 1)
    bad = nesting_violations([parent, escaping, other_thread, still_open])
    assert len(bad) == 3
    assert bad[2] == "o never ended"


def test_spans_nest_per_thread():
    mod = types.ModuleType("fake_threaded")
    mod.inner = lambda: time.sleep(0.001)

    def outer():
        mod.inner()
        mod.inner()

    mod.outer = outer
    sys.modules["fake_threaded"] = mod
    try:
        tracer = Tracer()
        tracer.install((Hook("outer", "fake_threaded:outer"), Hook("inner", "fake_threaded:inner")))
        threads = [threading.Thread(target=mod.outer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        tracer.uninstall()
    finally:
        del sys.modules["fake_threaded"]
    assert not any(thread.is_alive() for thread in threads)
    inners = [s for s in tracer.spans if s.name == "inner"]
    assert len(inners) == 8
    assert all(s.parent.thread == s.thread for s in inners)
    assert nesting_violations(tracer.spans) == []


def test_percentile_matches_statistics_inclusive():
    data = [float(x) for x in range(1, 101)]
    deciles = statistics.quantiles(data, n=10, method="inclusive")
    assert measure.percentile(data, 90) == pytest.approx(deciles[8])
    assert measure.percentile(data, 50) == pytest.approx(statistics.median(data))
    assert measure.percentile([3.0, 1.0, 2.0, 4.0], 50) == 2.5
    assert measure.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        measure.percentile([], 50)


@pytest.mark.parametrize(
    "n, keys",
    [(0, set()), (99, {"p50"}), (100, {"p50", "p90"}), (1000, {"p50", "p90", "p99"})],
)
def test_latency_percentiles_need_ten_samples_beyond(n, keys):
    lat = measure.latency_ms([0.001 * (i + 1) for i in range(n)])
    assert set(lat) == keys
    if n:
        assert lat["p50"] == pytest.approx(0.5 * (n + 1))  # ms


def test_window_metrics_are_medians_over_slices_and_ignore_a_slow_slice():
    fast = [0.001 * (i + 1) for i in range(10)]  # 1..10 ms
    slices = [(1.0, 100, fast), (1.0, 110, fast), (2.0, 40, [t + 0.010 for t in fast])]
    metrics = measure.window_metrics(slices)
    assert metrics["units_per_s"] == 100.0
    # Per slice p50 reads 5.5, 5.5 and 15.5 ms, p90 9.1, 9.1 and 19.1 ms.
    assert metrics["unit_p50_ms"] == pytest.approx(5.5)
    assert metrics["unit_p90_ms"] == pytest.approx(9.1)
    pooled = fast + fast + [t + 0.010 for t in fast]
    assert measure.percentile(pooled, 90) * 1e3 == pytest.approx(17.1)


def test_spread_is_quartile_distance_over_median():
    values = [float(x) for x in range(1, 11)]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert measure.spread(values) == pytest.approx((q3 - q1) / 5.5)
    assert measure.spread([2.0] * 10) == 0.0


def test_process_tree_and_peak_rss_of_this_process():
    assert os.getpid() in measure.process_tree(os.getpid())
    assert measure.peak_rss_tree_mb(os.getpid()) > 0
    assert measure.peak_rss_self_mb() > 0


def test_calibration_is_the_median_loop_time(monkeypatch):
    ticks = iter([0.0, 0.010, 1.0, 1.030, 2.0, 2.020])  # loops of 10, 30 and 20 ms
    monkeypatch.setattr(time, "perf_counter", lambda: next(ticks))
    assert measure.calibration_ms(reps=3) == pytest.approx(20.0)


def test_rounds_at_two_host_speeds_read_alike_at_the_reference_speed():
    loops = iter([10.0, 10.0, 15.0, 15.0])  # the kernel's ms between rounds
    host = measure.HostSpeed(lambda reps: next(loops))
    # A 100-unit round takes 2 s where the kernel takes the reference 10 ms
    # and 3 s where it takes 15 ms; the middle round spans the change.
    slices = []
    for wall in (2.0, 2.5, 3.0):
        factor = host.factor()
        slices.append((wall * factor, 100, [wall / 100 * factor] * 100))
    assert host.ms == [10.0, 10.0, 15.0, 15.0]
    assert [wall for wall, _, _ in slices] == pytest.approx([2.0, 2.0, 2.0])
    metrics = measure.window_metrics(slices)
    assert metrics["units_per_s"] == pytest.approx(50.0)
    assert metrics["unit_p50_ms"] == pytest.approx(20.0)


def test_units_take_the_factor_of_the_loops_around_their_segment(clock):
    from benchlib.workloads import InProcessWorkload

    loops = iter([10.0, 10.0, 30.0])  # ms: at the start, then after each segment
    wl = InProcessWorkload(seed=0)
    wl.host = measure.HostSpeed(lambda reps: next(loops))
    # 20 + 20 + 30 ms reach SEGMENT_S at the third unit; the fourth is
    # closed by hand, as at the end of a round.
    for seconds in (0.02, 0.02, 0.03, 0.01):
        wl._unit(None, "u", clock.advance, seconds)
    assert [u.factor for u in wl.units] == [1.0, 1.0, 1.0, 1.0]
    wl.close_segment()
    assert [u.latency_s for u in wl.units] == pytest.approx([0.02, 0.02, 0.03, 0.01])
    assert [u.factor for u in wl.units] == [1.0, 1.0, 1.0, 0.5]
    wl.close_segment()  # no open segment: the kernel is not timed
    assert wl.host.ms == [10.0, 10.0, 30.0]

