"""The in-process workloads: ``table1``, ``strict-exp`` and ``fig13``.

Each workload draws its inputs from the seed alone and runs in rounds.
A round is a fixed amount of work, seeded by ``(seed, round)``, so a
traced run can repeat it exactly with and without tracing. Every unit's
latency and outcome is recorded; ``check`` judges the outcomes after
the measured window, against the paper's claims and independent
computations.
"""

from __future__ import annotations

import importlib
import math
import time
from dataclasses import dataclass

import numpy as np

#: Round index of the warm-up draws, which no measured round uses.
WARM_UP = 2**31 - 1


@dataclass
class Unit:
    latency_s: float
    value: object = None
    error: str | None = None
    #: Brings ``latency_s`` to the reference speed; set when the unit's
    #: segment closes.
    factor: float = 1.0


class InProcessWorkload:
    name = ""
    #: The calibration kernel (``benchlib.measure.KERNELS``) whose speed
    #: this workload's code follows.
    KERNEL = "mixed"
    #: Unit time, at least, between two timings of the calibration
    #: kernel. The host changes speed within a round, so each segment of
    #: about 50 ms of units is followed by one 10-ms kernel run.
    SEGMENT_S = 0.05

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.units: list[Unit] = []
        #: Recorded with every result: what one round contains.
        self.scale: dict = {}
        #: The ``benchlib.measure.HostSpeed`` of the measured window; None
        #: leaves every factor at 1.
        self.host = None
        self._segment: list[Unit] = []
        self._segment_s = 0.0

    def setup(self) -> None:
        """Import what the units call and build the fixture."""
        raise NotImplementedError

    def run_round(self, r: int, tracer=None) -> None:
        raise NotImplementedError

    def check(self) -> tuple[int, list[str], list[str]]:
        """``(failed units, failure messages, recorded notes)``."""
        raise NotImplementedError

    def close_segment(self) -> None:
        """Time the calibration kernel once; the units since the last time
        take the factor it gives."""
        if self.host is None or not self._segment:
            return
        factor = self.host.factor(reps=1)
        for unit in self._segment:
            unit.factor = factor
        self._segment, self._segment_s = [], 0.0

    def _unit(self, tracer, uid: str, fn, *args) -> None:
        if tracer is not None:
            tracer.unit = uid
        t0 = time.perf_counter()
        try:
            value, error = fn(*args), None
        except Exception as exc:  # a failing unit is counted, not fatal
            value, error = None, f"{type(exc).__name__}: {exc}"
        unit = Unit(time.perf_counter() - t0, value, error)
        self.units.append(unit)
        self._segment.append(unit)
        self._segment_s += unit.latency_s
        if self._segment_s >= self.SEGMENT_S:
            self.close_segment()


class Table1(InProcessWorkload):
    """The Table 1 census: both models on every drawn instance."""

    name = "table1"
    #: Share of the paper's 2576 instances drawn per round. Rounding
    #: keeps the ten classes in the paper's 110 : 68 : 500 proportions.
    SCALE = 0.1
    #: Table 1: Strict gaps stay below 9 %.
    STRICT_GAP_LIMIT = 0.09

    def setup(self) -> None:
        table1 = importlib.import_module("repro.experiments.table1")
        self._appgen = importlib.import_module("repro.application.generators")
        self._platgen = importlib.import_module("repro.platform.generators")
        self._mapgen = importlib.import_module("repro.mapping.generators")
        self._critical = importlib.import_module("repro.core.critical")
        model = importlib.import_module("repro.types").ExecutionModel
        self._models = (model.OVERLAP, model.STRICT)
        config = table1.Table1Config()
        self._gap_tolerance = config.gap_tolerance
        self._classes = [
            (cls, max(1, round(cls.n_experiments * self.SCALE)))
            for cls in config.classes
        ]
        self.scale = {
            "census_share": self.SCALE,
            "instances_per_round": sum(n for _, n in self._classes),
            "units_per_round": 2 * sum(n for _, n in self._classes),
        }
        # Warm-up: first calls pay lazy imports and caches.
        warm = self._draw(self._classes[-1][0], np.random.default_rng([self.seed, WARM_UP]))
        for model in self._models:
            self._critical.analyze_critical_resource(warm, model)

    def _draw(self, cls, rng):
        # The draw of repro.experiments.table1, through the public
        # generators: uniform sizes in the class range, speeds and
        # bandwidths in [1, 1.5], at most four replicas per stage.
        lo, hi = cls.time_range
        app = self._appgen.random_application(
            cls.n_stages, rng, work_range=(lo, hi), file_range=(lo, hi)
        )
        plat = self._platgen.random_platform(
            cls.n_processors, rng, speed_range=(1.0, 1.5), bandwidth_range=(1.0, 1.5)
        )
        return self._mapgen.random_mapping(app, plat, rng, max_replication=4)

    def _analyze(self, cls, mapping, model):
        report = self._critical.analyze_critical_resource(mapping, model)
        return cls.label, model.value, report.relative_gap

    def run_round(self, r: int, tracer=None) -> None:
        rng = np.random.default_rng([self.seed, r])
        for c, (cls, n) in enumerate(self._classes):
            if tracer is not None:
                tracer.unit = f"r{r}.c{c}.draw"
            instances = [self._draw(cls, rng) for _ in range(n)]
            for model in self._models:
                for i, mapping in enumerate(instances):
                    self._unit(
                        tracer, f"r{r}.c{c}.{model.value}.{i}",
                        self._analyze, cls, mapping, model,
                    )

    def check(self):
        failed, messages = 0, []
        strict: dict[str, list[int]] = {}
        for unit in self.units:
            if unit.error is not None:
                failed += 1
                messages.append(unit.error)
                continue
            label, model, gap = unit.value
            if model == "overlap":
                if gap > self._gap_tolerance:
                    failed += 1
                    messages.append(
                        f"{label}: Overlap instance without a critical resource "
                        f"(gap {gap:.3g})"
                    )
                continue
            row = strict.setdefault(label, [0, 0])
            row[0] += gap > self._gap_tolerance
            row[1] += 1
            if gap >= self.STRICT_GAP_LIMIT:
                failed += 1
                messages.append(f"{label}: Strict gap {gap:.2%} >= 9%")
        notes = [
            "Strict instances without a critical resource, per class "
            "(recorded, not asserted): "
            + ", ".join(f"{label} {c}/{t}" for label, (c, t) in strict.items())
        ]
        return failed, messages, notes


class StrictExp(InProcessWorkload):
    """Theorem 2 on Strict mappings that share one structure cache per round."""

    name = "strict-exp"
    #: Team sizes per stage (teams take consecutive processors). Their
    #: marking graphs have 384, 864, 1296, 3456 and 7680 states; an odd
    #: count keeps the median unit inside one topology.
    TOPOLOGIES = ((2, 3), (1, 2, 3), (1, 2, 2, 2), (2, 3, 2), (3, 4))
    #: Timing draws per topology and round. Each round starts from an
    #: empty cache, so the first draw of a topology explores its marking
    #: graph and the others reuse it. Four keep a round near 2 s, so a
    #: window holds enough rounds for a median over them.
    DRAWS = 4
    #: Theorem 7 ordering: the exponential throughput never exceeds the
    #: deterministic one. Two different solvers compute the two sides,
    #: so equality may show a rounding difference.
    ORDER_TOL = 1e-9
    #: The cached and the uncached solve build the same chain with the
    #: same state numbering; only summation order may differ.
    CACHE_TOL = 1e-12

    def setup(self) -> None:
        self._appgen = importlib.import_module("repro.application.generators")
        self._platgen = importlib.import_module("repro.platform.generators")
        self._mapping = importlib.import_module("repro.mapping.mapping").Mapping
        self._batch = importlib.import_module("repro.evaluate.batch")
        self._cache = importlib.import_module("repro.evaluate.cache").StructureCache
        self._teams = []
        for reps in self.TOPOLOGIES:
            first = np.cumsum((0,) + reps[:-1])
            self._teams.append(
                [list(range(f, f + r)) for f, r in zip(first.tolist(), reps)]
            )
        self.scale = {
            "topologies": [list(t) for t in self.TOPOLOGIES],
            "draws_per_topology": self.DRAWS,
            "units_per_round": len(self.TOPOLOGIES) * self.DRAWS,
        }
        warm = self._draws(np.random.default_rng([self.seed, WARM_UP]), 0, 1)
        self._batch.evaluate_many(
            warm, solver="exponential", model="strict", cache=self._cache()
        )

    def _draws(self, rng, topology: int, count: int):
        teams = self._teams[topology]
        n_procs = sum(len(team) for team in teams)
        return [
            self._mapping(
                self._appgen.random_application(len(teams), rng),
                self._platgen.random_platform(n_procs, rng),
                teams,
            )
            for _ in range(count)
        ]

    def _score(self, mapping, cache, key):
        values = self._batch.evaluate_many(
            [mapping], solver="exponential", model="strict", cache=cache
        )
        return key, mapping, values[0]

    def run_round(self, r: int, tracer=None) -> None:
        rng = np.random.default_rng([self.seed, r])
        if tracer is not None:
            tracer.unit = f"r{r}.draw"
        draws = [
            self._draws(rng, t, self.DRAWS) for t in range(len(self.TOPOLOGIES))
        ]
        cache = self._cache()
        for t, mappings in enumerate(draws):
            for j, mapping in enumerate(mappings):
                self._unit(tracer, f"r{r}.t{t}.d{j}", self._score, mapping, cache, (t, j))

    def check(self):
        deterministic = importlib.import_module("repro.core.deterministic")
        build = importlib.import_module("repro.petri.builder_strict").build_strict_tpn
        exact = importlib.import_module("repro.markov.builder").tpn_throughput_exponential
        failed, messages, rechecked = 0, [], 0
        for unit in self.units:
            if unit.error is not None:
                failed += 1
                messages.append(unit.error)
                continue
            (t, j), mapping, value = unit.value
            upper = deterministic.tpn_throughput_deterministic(build(mapping))
            ok = value <= upper * (1 + self.ORDER_TOL)
            if not ok:
                messages.append(
                    f"topology {self.TOPOLOGIES[t]}: exponential {value!r} exceeds "
                    f"deterministic {upper!r}"
                )
            if j == self.DRAWS - 1:  # the sampled subset: last draw per topology
                rechecked += 1
                uncached = exact(build(mapping))
                if not math.isclose(value, uncached, rel_tol=self.CACHE_TOL, abs_tol=0.0):
                    ok = False
                    messages.append(
                        f"topology {self.TOPOLOGIES[t]}: cached {value!r} != "
                        f"uncached {uncached!r}"
                    )
            failed += not ok
        notes = [f"{rechecked} units re-solved without the cache"]
        return failed, messages, notes


class Fig13(InProcessWorkload):
    """The Fig. 13 grid: solver, Theorem 4 and both simulations per pair."""

    name = "fig13"
    #: 93% of a unit is simulate_system's element-wise recurrence.
    KERNEL = "recurrence"
    SIDES = range(2, 10)
    N_DATASETS = 5000
    #: Pairs per round; every cycle of four rounds covers the grid once.
    ROUND = 16
    #: The steady-state estimate of the constant-time simulation may be
    #: off by up to ten data sets of transient.
    CST_TOL = 10 / N_DATASETS
    CLOSED_FORM_TOL = 1e-12

    def setup(self) -> None:
        self._examples = importlib.import_module("repro.mapping.examples")
        self._batch = importlib.import_module("repro.evaluate.batch")
        self._pattern = importlib.import_module("repro.core.pattern")
        self._sim = importlib.import_module("repro.sim.system_sim")
        # A fixed partition of the grid into rounds with one cost mix:
        # the pairs, ranked by u + v, are dealt out in snake order. Every
        # round then measures the same mix, and the medians over rounds
        # do not depend on where the window ends.
        ranked = sorted(
            ((u, v) for u in self.SIDES for v in self.SIDES), key=lambda p: (p[0] + p[1], p)
        )
        n = len(ranked) // self.ROUND
        self._rounds = [[] for _ in range(n)]
        for i, pair in enumerate(ranked):
            k = i % (2 * n)
            self._rounds[k if k < n else 2 * n - 1 - k].append(pair)
        self.scale = {
            "pairs": len(ranked),
            "n_datasets": self.N_DATASETS,
            "units_per_round": self.ROUND,
        }
        self._pair(2, 3, WARM_UP)

    def _pair(self, u: int, v: int, r: int):
        mapping = self._examples.single_communication(u, v, comm_time=1.0)
        cst = self._batch.evaluate(mapping, solver="deterministic")
        g = math.gcd(u, v)
        theory = g * self._pattern.pattern_throughput_homogeneous(u // g, v // g, 1.0)
        sims = [
            self._sim.simulate_system(
                mapping, "overlap", n_datasets=self.N_DATASETS, law=law,
                rng=np.random.default_rng([self.seed, r, u, v]),
            ).steady_state_throughput()
            for law in ("deterministic", "exponential")
        ]
        return u, v, cst, theory, sims[0], sims[1]

    def run_round(self, r: int, tracer=None) -> None:
        for u, v in self._rounds[r % len(self._rounds)]:
            self._unit(tracer, f"r{r}.u{u}v{v}", self._pair, u, v, r)

    def check(self):
        failed, messages = 0, []
        worst = {"coprime": 0.0, "gcd>1": 0.0}
        for unit in self.units:
            if unit.error is not None:
                failed += 1
                messages.append(unit.error)
                continue
            u, v, cst, theory, sim_cst, sim_exp = unit.value
            g = math.gcd(u, v)
            up, vp = u // g, v // g
            ok = True
            if abs(theory / cst - max(up, vp) / (up + vp - 1)) > self.CLOSED_FORM_TOL:
                ok = False
                messages.append(f"({u},{v}): closed form {theory / cst!r} off the ratio")
            if abs(sim_cst / cst - 1.0) > self.CST_TOL:
                ok = False
                messages.append(
                    f"({u},{v}): constant-time simulation {sim_cst!r} vs solver {cst!r}"
                )
            failed += not ok
            kind = "coprime" if g == 1 else "gcd>1"
            worst[kind] = max(worst[kind], abs(sim_exp / theory - 1.0))
        notes = [
            "exponential simulation vs Theorem 4 (recorded, not asserted): "
            f"coprime pairs up to {worst['coprime']:.1%}, "
            f"gcd>1 pairs up to {worst['gcd>1']:.1%}"
        ]
        return failed, messages, notes


IN_PROCESS = {w.name: w for w in (Table1, StrictExp, Fig13)}
