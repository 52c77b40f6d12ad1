"""Ready-made campaign specs, including ports of the paper's drivers.

Four of the hand-coded experiment drivers (``fig10``, ``fig11``,
``fig13``, ``timing`` — see :mod:`repro.experiments`) are re-expressed
here as pure data: the same systems, solvers and parameter grids, but
run by the generic sweep engine with a resumable store instead of
bespoke loops. Their descriptions come straight from the experiment
registry, so ``repro.cli list`` and the presets stay one source.

``smoke`` is the tiny 4-unit grid the CI smoke jobs run.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.campaign.spec import CampaignSpec, ScenarioSpec, SystemSpec
from repro.exceptions import CampaignError
from repro.experiments import experiment_description


def _smoke() -> CampaignSpec:
    return CampaignSpec(
        name="smoke",
        description="tiny 4-unit deterministic grid (CI smoke)",
        seed=0,
        scenarios=[
            ScenarioSpec(
                name="smoke/pattern",
                description="single communication, 2x2 (u, v) grid",
                system=SystemSpec("single_communication", {"comm_time": 1.0}),
                solver="deterministic",
                axes={"system.u": [2, 3], "system.v": [2, 3]},
            ),
        ],
    )


def _fig10() -> CampaignSpec:
    system = SystemSpec(
        "uniform_chain",
        {"replication": [1, 3, 4, 5, 6, 7, 1], "work": 10.0, "file_size": 10.0},
    )
    return CampaignSpec(
        name="fig10",
        description=experiment_description("fig10"),
        seed=10,
        scenarios=[
            ScenarioSpec(
                name="fig10/theory",
                description="constant and exponential theoretical values",
                system=system,
                axes={"solver": ["deterministic", "exponential"]},
            ),
            ScenarioSpec(
                name="fig10/convergence",
                description="simulated throughput vs processed data sets",
                system=system,
                solver="simulation",
                axes={"solver.n_datasets": [100, 500, 1000, 5000]},
            ),
        ],
    )


def _fig11() -> CampaignSpec:
    system = SystemSpec(
        "uniform_chain",
        {"replication": [1, 3, 4, 5, 6, 7, 1], "work": 10.0, "file_size": 10.0},
    )
    return CampaignSpec(
        name="fig11",
        description=experiment_description("fig11"),
        seed=11,
        scenarios=[
            ScenarioSpec(
                name="fig11/dispersion",
                description="mean replicated throughput vs run length "
                "(100 replications in one vectorized pass per unit)",
                system=system,
                solver="simulation",
                options={"n_replications": 100},
                axes={"solver.n_datasets": [10, 100, 1000]},
            ),
        ],
    )


def _fig13() -> CampaignSpec:
    return CampaignSpec(
        name="fig13",
        description=experiment_description("fig13"),
        seed=13,
        scenarios=[
            ScenarioSpec(
                name="fig13/pattern",
                description="theory over the (u, v) sender/receiver grid",
                system=SystemSpec("single_communication", {"comm_time": 1.0}),
                axes={
                    "system.u": [2, 3, 4, 5],
                    "system.v": [2, 3, 4, 5],
                    "solver": ["deterministic", "exponential"],
                },
            ),
        ],
    )


def _timing() -> CampaignSpec:
    system = SystemSpec(
        "uniform_chain",
        {"replication": [1, 3, 4, 5, 6, 7, 1], "work": 10.0, "file_size": 10.0},
    )
    return CampaignSpec(
        name="timing",
        description=experiment_description("timing"),
        seed=77,
        scenarios=[
            ScenarioSpec(
                name="timing/theory",
                description="both theoretical tools on the Fig. 10 system",
                system=system,
                axes={"solver": ["deterministic", "exponential"]},
            ),
            ScenarioSpec(
                name="timing/simulation",
                description="system simulator at several workload sizes",
                system=system,
                solver="simulation",
                axes={"solver.n_datasets": [100, 1000, 10_000]},
            ),
        ],
    )


PRESETS: dict[str, Callable[[], CampaignSpec]] = {
    "smoke": _smoke,
    "fig10": _fig10,
    "fig11": _fig11,
    "fig13": _fig13,
    "timing": _timing,
}


def available_presets() -> tuple[str, ...]:
    """Preset names, sorted."""
    return tuple(sorted(PRESETS))


def get_preset(name: str) -> CampaignSpec:
    """Build the preset campaign registered under ``name``."""
    try:
        factory = PRESETS[name]
    except KeyError:
        raise CampaignError(
            f"unknown campaign preset {name!r}; "
            f"available: {', '.join(available_presets())}"
        ) from None
    return factory()
