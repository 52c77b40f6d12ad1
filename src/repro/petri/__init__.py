"""Timed Petri nets / timed event graphs (paper Section 3)."""

from repro.petri.net import Place, TimedEventGraph, Transition
from repro.petri.builder_overlap import build_overlap_tpn, DEFAULT_MAX_TRANSITIONS
from repro.petri.builder_strict import build_strict_tpn
from repro.petri.analysis import (
    is_feed_forward,
    is_live,
    is_strongly_connected,
    resource_token_invariant,
    strongly_connected_components,
    subnet,
    transition_digraph,
    validate,
)
from repro.petri.reachability import ReachabilityResult, explore, explore_reference

__all__ = [
    "Place",
    "TimedEventGraph",
    "Transition",
    "build_overlap_tpn",
    "build_strict_tpn",
    "DEFAULT_MAX_TRANSITIONS",
    "is_feed_forward",
    "is_live",
    "is_strongly_connected",
    "resource_token_invariant",
    "strongly_connected_components",
    "subnet",
    "transition_digraph",
    "validate",
    "ReachabilityResult",
    "explore",
    "explore_reference",
]


def build_tpn(mapping, model, **kwargs):
    """Build the TPN of ``mapping`` under the given execution model."""
    from repro.types import ExecutionModel

    model = ExecutionModel.coerce(model)
    if model is ExecutionModel.OVERLAP:
        return build_overlap_tpn(mapping, **kwargs)
    return build_strict_tpn(mapping, **kwargs)
