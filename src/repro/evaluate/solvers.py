"""The pluggable throughput solvers and their registry.

Every way the library can score a mapping — the Section 4 deterministic
evaluators, the Section 5 exponential analysis, the Theorem 7 N.B.U.E.
sandwich and the Section 7 simulators — is wrapped behind one protocol
and registered under a short name::

    >>> from repro.evaluate import get_solver
    >>> get_solver("deterministic").solve(mapping, "overlap")
    >>> get_solver("bounds").bounds(mapping, "strict").width

Solvers are small frozen dataclasses: construction freezes the options,
``solve`` is a pure function of ``(mapping, model)`` — which is what
makes the score memo of :class:`~repro.evaluate.cache.StructureCache`
sound and lets :func:`~repro.evaluate.batch.evaluate_many` ship solver
instances to worker processes byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from typing import TYPE_CHECKING, ClassVar, Protocol, runtime_checkable

import numpy as np

from repro.evaluate.cache import StructureCache, strict_net
from repro.evaluate.fingerprint import fingerprint_digest, mapping_fingerprint
from repro.exceptions import UnsupportedModelError
from repro.mapping.mapping import Mapping
from repro.telemetry.profile import profile_span
from repro.types import ExecutionModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.bounds import ThroughputBounds

# NOTE: `repro.core` is imported lazily inside the solve methods. The core
# façade (`StreamingSystem`, `throughput_bounds`) delegates to this
# registry, so importing core eagerly here would close an import cycle.


@runtime_checkable
class ThroughputSolver(Protocol):
    """A named, deterministic mapping → throughput evaluator."""

    name: str

    def solve(
        self,
        mapping: Mapping,
        model: ExecutionModel | str = "overlap",
        *,
        cache: StructureCache | None = None,
    ) -> float:
        """Throughput of ``mapping`` under ``model``."""
        ...


_REGISTRY: dict[str, type] = {}


def register_solver(name: str):
    """Class decorator adding a solver to the registry under ``name``."""

    def decorate(cls):
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return decorate


def available_solvers() -> tuple[str, ...]:
    """Registered solver names, sorted."""
    return tuple(sorted(_REGISTRY))


def _lookup(name: str) -> type:
    """Registry lookup with the canonical unknown-solver error."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnsupportedModelError(
            f"unknown solver {name!r}; available: {', '.join(available_solvers())}"
        ) from None


def solver_is_stochastic(name: str) -> bool:
    """Whether the backend's value depends on a random stream.

    Backends declare it with a ``stochastic = True`` class attribute
    (see :class:`SimulationSolver`); deterministic analyses leave it
    unset. The campaign grid uses this to decide which units are
    seed-keyed: a stochastic unit's identity must include the campaign
    seed, an exact analysis' must not.
    """
    return bool(getattr(_lookup(name), "stochastic", False))


def solver_options(name: str) -> tuple[str, ...]:
    """Constructor option names the solver registered under ``name`` accepts.

    Lets generic callers (the search heuristics, the CLI) forward only
    the options a backend understands instead of hard-coding per-solver
    signatures.
    """
    cls = _lookup(name)
    if is_dataclass(cls):
        return tuple(f.name for f in fields(cls))
    return ()


def get_solver(name: str, **options) -> ThroughputSolver:
    """Instantiate the solver registered under ``name``.

    ``options`` are the solver's constructor keywords (e.g. ``max_states``
    or ``buffer_capacity`` of ``exponential``); an unknown solver name
    raises ``UnsupportedModelError`` with the available choices, and an
    option the solver does not take raises ``TypeError``.
    """
    return _lookup(name)(**options)


# ----------------------------------------------------------------------
# Exact solvers
# ----------------------------------------------------------------------
@register_solver("deterministic")
@dataclass(frozen=True)
class DeterministicSolver:
    """Static throughput: Section 4's ``m / P`` under both models.

    Overlap takes the smallest inner rate of the symbolic components
    (:func:`~repro.core.components.overlap_throughput`); Strict takes the
    critical cycle of the whole net, one kernel call
    (:func:`~repro.core.deterministic.tpn_throughput_deterministic`).
    Either way the value is ``m`` times the per-transition rate of the
    slowest strongly connected component, never above ``1 / Mct``. The
    solver has no options.
    """

    def solve(
        self,
        mapping: Mapping,
        model: ExecutionModel | str = "overlap",
        *,
        cache: StructureCache | None = None,
    ) -> float:
        from repro.core.components import overlap_throughput
        from repro.core.deterministic import tpn_throughput_deterministic

        model = ExecutionModel.coerce(model)
        if model is ExecutionModel.OVERLAP:
            return overlap_throughput(mapping, "deterministic")
        with profile_span("deterministic_tpn"):
            return tpn_throughput_deterministic(strict_net(mapping, cache))


@register_solver("exponential")
@dataclass(frozen=True)
class ExponentialSolver:
    """Section 5 exponential throughput (Theorems 2-4).

    Calls :func:`repro.core.exponential.exponential_throughput`, which
    picks the method from the model and ``buffer_capacity`` and reports
    ``m`` times the per-transition rate of the slowest strongly connected
    component. Strict solves Theorem 2's chain once per row class
    (``buffer_capacity`` raises there) through the structure cache: the
    net build and the reachability exploration are reused across
    candidates and classes sharing the timing / topology fingerprint,
    only the CTMC solve runs per class.
    """

    buffer_capacity: int | None = None
    max_states: int = 200_000

    def solve(
        self,
        mapping: Mapping,
        model: ExecutionModel | str = "overlap",
        *,
        cache: StructureCache | None = None,
    ) -> float:
        from repro.core.exponential import exponential_throughput

        return exponential_throughput(
            mapping,
            model,
            buffer_capacity=self.buffer_capacity,
            max_states=self.max_states,
            cache=cache,
        )


@register_solver("bounds")
@dataclass(frozen=True)
class BoundsSolver:
    """Theorem 7 N.B.U.E. sandwich built from the two exact solvers.

    ``solve`` returns the guaranteed floor (the exponential lower bound —
    the value a variability-robust search should maximize); ``bounds``
    returns the full :class:`~repro.core.bounds.ThroughputBounds`. Both
    halves take the slowest component's rate and share one structure
    cache, so a connected Strict net is built (and its marking graph
    explored) once per mapping, not once per bound. ``max_states``
    guards the exponential half.
    """

    max_states: int = 200_000

    def bounds(
        self,
        mapping: Mapping,
        model: ExecutionModel | str = "overlap",
        *,
        cache: StructureCache | None = None,
    ) -> ThroughputBounds:
        from repro.core.bounds import ThroughputBounds

        if cache is None:
            cache = StructureCache()
        upper = DeterministicSolver().solve(mapping, model, cache=cache)
        lower = ExponentialSolver(max_states=self.max_states).solve(
            mapping, model, cache=cache
        )
        return ThroughputBounds(lower=lower, upper=upper)

    def solve(
        self,
        mapping: Mapping,
        model: ExecutionModel | str = "overlap",
        *,
        cache: StructureCache | None = None,
    ) -> float:
        return self.bounds(mapping, model, cache=cache).lower


# ----------------------------------------------------------------------
# Monte-Carlo solver
# ----------------------------------------------------------------------
@register_solver("simulation")
@dataclass(frozen=True)
class SimulationSolver:
    """Section 7 discrete-event estimate with deterministic seeding.

    The per-candidate random stream is derived from ``seed`` *and* the
    mapping's timing fingerprint, never from evaluation order — so a
    batch scored with ``n_jobs=8`` is bit-identical to the serial loop,
    and memoized repeats are exact (the same candidate always replays the
    same stream).

    ``n_replications > 1`` turns the estimate into a Section 7.2/7.3
    replication study: the solver scores the mean throughput across
    independent replications, all run in one vectorized recurrence pass
    (:func:`~repro.sim.runner.replicate` on a
    :class:`~repro.sim.runner.ReplicationSpec`).

    Every option (``n_datasets``, the law with ``law_params``, ``seed``
    and ``n_replications``, the counts and the seed as integers) is
    checked when the solver is built, so a bad one fails before any unit
    is scored.
    """

    #: This backend's value depends on its random stream (campaign
    #: units scored by it are therefore seed-keyed).
    stochastic: ClassVar[bool] = True

    n_datasets: int = 1_000
    law: str = "exponential"
    law_params: tuple[tuple[str, float], ...] = field(default=())
    seed: int = 0
    n_replications: int = 1

    def __post_init__(self) -> None:
        from repro.distributions.registry import make_distribution

        # Accept a dict or any pair sequence (JSON specs can only say
        # lists); store the canonical sorted-tuple form, which is what
        # keeps the solver hashable for the score-memo cache keys.
        if isinstance(self.law_params, dict):
            items = self.law_params.items()
        else:
            items = (tuple(p) for p in self.law_params)
        object.__setattr__(self, "law_params", tuple(sorted(items)))
        for name in ("n_datasets", "seed", "n_replications"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if self.n_datasets < 1:
            raise ValueError("n_datasets must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.n_replications < 1:
            raise ValueError("n_replications must be >= 1")
        # Build the law once at unit mean: an unknown family or parameter
        # raises InvalidDistributionError here, not at solve time.
        make_distribution(self.law, 1.0, **dict(self.law_params))

    def rng_for(self, mapping: Mapping, model: ExecutionModel | str) -> np.random.Generator:
        digest = fingerprint_digest(mapping_fingerprint(mapping, model))
        return np.random.default_rng([self.seed, digest])

    def solve(
        self,
        mapping: Mapping,
        model: ExecutionModel | str = "overlap",
        *,
        cache: StructureCache | None = None,
    ) -> float:
        from repro.sim.sampling import LawSpec
        from repro.sim.system_sim import simulate_system

        model = ExecutionModel.coerce(model)
        spec = LawSpec.of(self.law, **dict(self.law_params))
        if self.n_replications > 1:
            from repro.sim.runner import ReplicationSpec, replicate

            # Replication streams are spawned from the same
            # fingerprint-keyed entropy as the single-run stream, so the
            # study stays independent of evaluation order and exact under
            # memoization.
            digest = fingerprint_digest(mapping_fingerprint(mapping, model))
            with profile_span("simulate"):
                summary = replicate(
                    ReplicationSpec(
                        mapping, model, n_datasets=self.n_datasets, law=spec
                    ),
                    n_replications=self.n_replications,
                    seed=[self.seed, digest],
                )
            return summary.mean
        with profile_span("simulate"):
            result = simulate_system(
                mapping,
                model,
                n_datasets=self.n_datasets,
                law=spec,
                rng=self.rng_for(mapping, model),
            )
        return result.throughput
