"""Sweep engine: expand scenario grids into fingerprint-keyed run units.

Expansion is deterministic by construction — scenarios in spec order,
axes in sorted-name order, values in the cartesian-product order of
:func:`itertools.product` — so the same spec always yields the same
unit list. Each :class:`RunUnit` carries a *fingerprint*: a content
digest of everything defining the unit (campaign, scenario, resolved
system, solver, model, options — plus the base seed for stochastic
units). The fingerprint is the unit's identity in the
result store (dedup, ``--resume``) and the source of its derived seed,
which therefore cannot depend on worker count or execution order.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field

from repro.campaign.spec import CampaignSpec, ScenarioSpec, SystemSpec
from repro.evaluate.solvers import (
    available_solvers,
    solver_is_stochastic,
    solver_options,
)
from repro.exceptions import CampaignError

#: Mask keeping derived seeds in the non-negative int64 range NumPy's
#: ``default_rng`` accepts directly.
_SEED_MASK = (1 << 63) - 1


@dataclass(frozen=True)
class RunUnit:
    """One independently executable, reproducible evaluation."""

    campaign: str
    scenario: str
    system: SystemSpec
    solver: str
    model: str
    options: dict = field(compare=False)
    params: dict = field(compare=False)
    fingerprint: str = ""
    seed: int = 0

    def __hash__(self) -> int:
        # The fingerprint digests every identity field, so hash/eq stay
        # consistent (and the dict-valued fields stay out of hashing).
        return hash(self.fingerprint)


def unit_fingerprint(payload: dict) -> str:
    """Stable hex digest of a JSON-serializable unit payload.

    Canonical JSON (sorted keys, no whitespace drift) feeds a 128-bit
    BLAKE2b digest, so fingerprints are stable across Python builds and
    processes — the property the resumable store relies on.
    """
    try:
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        # E.g. numpy scalars in a programmatic spec's axes: fingerprints
        # (and the store) speak plain JSON types only.
        raise CampaignError(
            "campaign parameters must be JSON-serializable (plain "
            f"int/float/str/bool/list values): {exc}"
        ) from None
    return hashlib.blake2b(canonical.encode(), digest_size=16).hexdigest()


def derive_seed(base_seed: int, fingerprint: str) -> int:
    """Per-unit seed from the campaign seed and the unit fingerprint.

    Content-derived, hence bit-identical whatever the worker count or
    execution order; distinct units get independent streams because the
    fingerprint differs.
    """
    payload = f"{base_seed}:{fingerprint}".encode()
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big") & _SEED_MASK


def expand_scenario(
    campaign: str, base_seed: int, scenario: ScenarioSpec
) -> list[RunUnit]:
    """All run units of one scenario, in deterministic grid order."""
    axis_names = sorted(scenario.axes)
    known_solvers = available_solvers()
    units: list[RunUnit] = []
    # No axes → product() yields one empty combo: a single-unit scenario.
    for combo in itertools.product(*(scenario.axes[a] for a in axis_names)):
        assignment = dict(zip(axis_names, combo))
        solver = assignment.get("solver", scenario.solver)
        model = assignment.get("model", scenario.model)
        system_overrides: dict = {}
        options = dict(scenario.options)
        for axis, value in assignment.items():
            if axis.startswith("system."):
                system_overrides[axis[len("system."):]] = value
            elif axis.startswith("solver."):
                options[axis[len("solver."):]] = value
        if solver not in known_solvers:
            raise CampaignError(
                f"scenario {scenario.name!r}: unknown solver {solver!r}; "
                f"available: {', '.join(known_solvers)}"
            )
        allowed = solver_options(solver)
        unknown = set(options) - set(allowed)
        if unknown:
            hint = ""
            if "solver" in scenario.axes:
                # Scenario options apply to every solver the axis swaps
                # in — solver-specific ones need their own scenario.
                hint = (
                    "; scenario options apply to every value of the "
                    "'solver' axis — put solver-specific options in a "
                    "separate scenario for that solver"
                )
            raise CampaignError(
                f"scenario {scenario.name!r}: solver {solver!r} does not "
                f"accept option(s) {', '.join(sorted(unknown))}; "
                f"allowed: {', '.join(allowed) or 'none'}{hint}"
            )
        system = scenario.system.with_params(system_overrides)
        stochastic = solver_is_stochastic(solver) and "seed" not in options
        payload = {
            "campaign": campaign,
            "scenario": scenario.name,
            "system": system.to_dict(),
            "solver": solver,
            "model": model,
            "options": options,
        }
        if stochastic:
            # A stochastic unit's value depends on the campaign seed, so
            # the seed joins its identity: two base seeds are two units,
            # never deduplicated against each other by the store.
            # Deterministic units stay seed-independent (their value is).
            payload["base_seed"] = base_seed
        fingerprint = unit_fingerprint(payload)
        seed = derive_seed(base_seed, fingerprint)
        if stochastic:
            # A stochastic backend's stream seed is the unit's derived
            # seed unless the spec pins one explicitly (then the pinned
            # value is already part of the fingerprinted options).
            options["seed"] = seed
        units.append(
            RunUnit(
                campaign=campaign,
                scenario=scenario.name,
                system=system,
                solver=solver,
                model=model,
                options=options,
                params=assignment,
                fingerprint=fingerprint,
                seed=seed,
            )
        )
    return units


def expand(spec: CampaignSpec) -> list[RunUnit]:
    """Every run unit of the campaign, scenario by scenario."""
    units: list[RunUnit] = []
    for scenario in spec.scenarios:
        units.extend(expand_scenario(spec.name, spec.seed, scenario))
    return units
