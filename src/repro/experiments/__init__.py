"""Reproduction of every table and figure of the paper's Section 7.

Each module exposes ``run(config) -> ExperimentResult``; the CLI
(``python -m repro.cli``) and the campaign presets drive them.
Default configurations match the paper's parameters; every module also
accepts a scaled-down configuration (``run --scale``, the test suite).

The drivers live in a registry: ``experiment_names()`` /
``get_experiment()`` are the one source both ``repro.cli list`` and the
campaign presets (:mod:`repro.campaign.presets`) derive from. New
drivers only need a ``run()`` entry point and a
:func:`register_experiment` call.
"""

from types import ModuleType

from repro.experiments.common import ExperimentResult, Row
from repro.experiments import (
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

__all__ = [
    "ExperimentResult",
    "Row",
    "register_experiment",
    "experiment_names",
    "get_experiment",
    "experiment_description",
    "ALL_EXPERIMENTS",
    "table1",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "timing",
]

_REGISTRY: dict[str, ModuleType] = {}


def register_experiment(name: str, module: ModuleType) -> ModuleType:
    """Add a driver module (must expose ``run()``) to the registry."""
    if not callable(getattr(module, "run", None)):
        raise TypeError(
            f"experiment {name!r} must expose a callable run(config) entry point"
        )
    _REGISTRY[name] = module
    return module


def experiment_names() -> tuple[str, ...]:
    """Registered driver names, in registration (paper) order."""
    return tuple(_REGISTRY)


def get_experiment(name: str) -> ModuleType:
    """Driver module registered under ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(experiment_names())
        raise KeyError(
            f"unknown experiment {name!r}; available: {known}"
        ) from None


def experiment_description(name: str) -> str:
    """First docstring line of the driver registered under ``name``."""
    doc = (get_experiment(name).__doc__ or "").strip()
    return doc.splitlines()[0] if doc else ""


for _name, _module in (
    ("table1", table1),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
    ("fig16", fig16),
    ("fig17", fig17),
    ("timing", timing),
):
    register_experiment(_name, _module)
del _name, _module

#: Backwards-compatible view of the registry (name → driver module).
ALL_EXPERIMENTS = _REGISTRY
