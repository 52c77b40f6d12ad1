"""Table 1 — counting experiments without critical resource.

The paper draws thousands of random (application, platform, mapping)
instances over several size/time classes and counts, per execution model,
how many have a period strictly longer than every resource cycle-time
("without critical resource"). Headline shapes to reproduce:

* **Overlap**: no such case at all (0 / N for every class);
* **Strict**: a small number of cases, only in the *small* communication
  ranges (e.g. 14/220 for 5…15 s), none in the wide 10…1000 s ranges,
  and the relative gap stays below ≈9 %.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.application.generators import random_application
from repro.core.critical import analyze_critical_resource
from repro.exceptions import StateSpaceLimitError
from repro.experiments.common import ExperimentResult
from repro.mapping.generators import random_mapping
from repro.platform.generators import random_platform
from repro.types import ExecutionModel


@dataclass(frozen=True)
class InstanceClass:
    """One row class of Table 1."""

    n_stages: int
    n_processors: int
    time_range: tuple[float, float]
    n_experiments: int
    label: str = ""


@dataclass
class Table1Config:
    classes: list[InstanceClass] = field(default_factory=lambda: [
        InstanceClass(10, 20, (5.0, 15.0), 110, "(10,20) 5..15"),
        InstanceClass(10, 30, (5.0, 15.0), 110, "(10,30) 5..15"),
        InstanceClass(10, 20, (10.0, 1000.0), 110, "(10,20) 10..1000"),
        InstanceClass(10, 30, (10.0, 1000.0), 110, "(10,30) 10..1000"),
        InstanceClass(20, 30, (5.0, 15.0), 68, "(20,30) 5..15"),
        InstanceClass(20, 30, (10.0, 1000.0), 68, "(20,30) 10..1000"),
        InstanceClass(2, 7, (5.0, 10.0), 500, "(2,7) comm 5..10"),
        InstanceClass(3, 7, (5.0, 10.0), 500, "(3,7) comm 5..10"),
        InstanceClass(2, 7, (10.0, 50.0), 500, "(2,7) comm 10..50"),
        InstanceClass(3, 7, (10.0, 50.0), 500, "(3,7) comm 10..50"),
    ])
    seed: int = 2010
    #: Largest gap still counted as "has a critical resource". Over this
    #: census a gap is round-off (|gap| <= 8.2e-16) or real (>= 5.1e-4,
    #: 26 Strict instances): 1e-6 lies nine orders of magnitude above
    #: the one and 2.7 below the other, so no instance sits near it.
    gap_tolerance: float = 1e-6
    #: Skip instances whose lcm would unroll beyond this many transitions
    #: (the paper's own tooling is O(m³n³) and has the same practical cap).
    max_transitions: int = 60_000


def scaled_config(scale: float, seed: int = 2010) -> Table1Config:
    """A smaller campaign for the benchmark harness."""
    base = Table1Config(seed=seed)
    classes = [
        InstanceClass(
            c.n_stages,
            c.n_processors,
            c.time_range,
            max(4, int(c.n_experiments * scale)),
            c.label,
        )
        for c in base.classes
    ]
    return Table1Config(classes=classes, seed=seed)


def _draw_instance(cls: InstanceClass, rng: np.random.Generator):
    lo, hi = cls.time_range
    # Fully heterogeneous draw, like the paper: stage/file sizes and
    # processor/link capacities all uniform; realized operation times
    # land in (roughly) the advertised range.
    app = random_application(
        cls.n_stages, rng, work_range=(lo, hi), file_range=(lo, hi)
    )
    plat = random_platform(
        cls.n_processors, rng, speed_range=(1.0, 1.5),
        bandwidth_range=(1.0, 1.5),
    )
    # Keep replication moderate so lcm stays tractable (as the paper's
    # O(m³n³) tooling implicitly required).
    return random_mapping(app, plat, rng, max_replication=4)


def run(config: Table1Config | None = None) -> ExperimentResult:
    config = config or Table1Config()
    result = ExperimentResult(
        name="table1",
        description="experiments without critical resource (per model)",
        columns=[
            "class",
            "model",
            "no_critical",
            "total",
            "max_gap_pct",
        ],
    )
    rng = np.random.default_rng(config.seed)
    skipped = 0
    for cls in config.classes:
        instances = []
        while len(instances) < cls.n_experiments:
            mp = _draw_instance(cls, rng)
            if mp.n_rows * (2 * mp.n_stages - 1) > config.max_transitions:
                skipped += 1
                continue
            instances.append(mp)
        for model in (ExecutionModel.OVERLAP, ExecutionModel.STRICT):
            count = 0
            max_gap = 0.0
            for mp in instances:
                try:
                    report = analyze_critical_resource(mp, model)
                except StateSpaceLimitError:  # pragma: no cover - guarded
                    skipped += 1
                    continue
                gap = report.relative_gap
                max_gap = max(max_gap, gap)
                if not report.has_critical_resource(
                    tolerance=config.gap_tolerance
                ):
                    count += 1
            result.add(
                **{
                    "class": cls.label,
                    "model": model.value,
                    "no_critical": count,
                    "total": cls.n_experiments,
                    "max_gap_pct": 100.0 * max_gap,
                }
            )
    if skipped:
        result.notes.append(f"{skipped} oversized instances redrawn/skipped")
    result.notes.append(
        "paper: Overlap has 0 cases in every class; Strict has a few cases "
        "in the small-communication classes only, gap < 9%"
    )
    return result
