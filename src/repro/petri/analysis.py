"""Structural analysis of timed event graphs.

These checks back the structural claims of Section 3 that the throughput
algorithms rely on:

* the Overlap net is feed-forward (places never point to an earlier
  column) — hypothesis of the column decomposition (Theorem 3);
* every resource cycle carries exactly one token and the net is live
  (no zero-token cycle);
* the Strict net has backward places, and is strongly connected for
  connected mappings.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.exceptions import StructuralError
from repro.petri.net import TimedEventGraph
from repro.types import PlaceKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    # The functions import networkx where they use it, so that importing
    # the package does not load it.
    import networkx as nx


def transition_digraph(tpn: TimedEventGraph) -> nx.DiGraph:
    """Directed graph on transitions with one edge per place (collapsed)."""
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(range(tpn.n_transitions))
    g.add_edges_from((p.src, p.dst) for p in tpn.places)
    return g


def is_feed_forward(tpn: TimedEventGraph) -> bool:
    """Whether every place goes forward (or stays) in column order.

    Overlap nets are feed-forward; Strict nets are not (their
    serialization chains jump from a send column back to the previous
    receive column).
    """
    trans = tpn.transitions
    return all(trans[p.src].column <= trans[p.dst].column for p in tpn.places)


def is_live(tpn: TimedEventGraph) -> bool:
    """No zero-token cycle — every cycle can fire infinitely often."""
    return not tpn.to_token_graph().has_zero_token_cycle()


def is_strongly_connected(tpn: TimedEventGraph) -> bool:
    import networkx as nx

    return nx.is_strongly_connected(transition_digraph(tpn))


def strongly_connected_components(tpn: TimedEventGraph) -> list[list[int]]:
    """SCCs of the transition graph, each sorted, in topological order.

    Topological order of the condensation: predecessors first.
    """
    import networkx as nx

    g = transition_digraph(tpn)
    comp_sets = list(nx.strongly_connected_components(g))
    cond = nx.condensation(g, scc=comp_sets)
    order = list(nx.topological_sort(cond))
    return [sorted(cond.nodes[c]["members"]) for c in order]


def subnet(tpn: TimedEventGraph, transition_subset: list[int]) -> tuple[TimedEventGraph, dict[int, int]]:
    """Induced sub-net on a transition subset, dropping boundary places.

    Dropping places whose source lies outside the subset realizes the
    *saturated-input* (isolation) semantics used to compute a component's
    inner throughput: external precursors are assumed always ready.
    Returns the sub-net and the old→new transition index map.
    """
    keep = sorted(set(transition_subset))
    relabel = {old: new for new, old in enumerate(keep)}
    sub = TimedEventGraph(n_rows=tpn.n_rows, n_columns=tpn.n_columns)
    for old in keep:
        t = tpn.transitions[old]
        sub.add_transition(
            t.kind, t.column, t.row, t.stage, t.resource, t.mean_time, t.label
        )
    for p in tpn.places:
        if p.src in relabel and p.dst in relabel:
            sub.add_place(relabel[p.src], relabel[p.dst], p.tokens, p.kind)
    return sub, relabel


def resource_token_invariant(tpn: TimedEventGraph) -> dict[tuple, int]:
    """Initial token count per resource cycle.

    Places of one cycle kind decompose into connected components, one per
    hardware resource (a processor's compute cycle, a port's send/receive
    cycle, or a Strict serialization chain); the builders put exactly one
    token on each. Keys are ``(kind, component_id)``; tests assert every
    value equals 1.
    """
    counts: dict[tuple, int] = {}
    cycle_kinds = {
        PlaceKind.PROC_CYCLE,
        PlaceKind.OUT_PORT,
        PlaceKind.IN_PORT,
        PlaceKind.STRICT_CYCLE,
    }
    for p in tpn.places:
        if p.kind not in cycle_kinds:
            continue
        # The owner of a cycle place is the processor whose round-robin it
        # implements: the cpu for compute cycles, the sender for output
        # ports and Strict chains (rows end with a send), the receiver for
        # input ports. This keys each processor's chain separately even
        # though Strict chains share comm transitions between processors.
        src = tpn.transitions[p.src]
        owner = src.resource[2] if p.kind is PlaceKind.IN_PORT else src.resource[1]
        counts[(p.kind, owner)] = counts.get((p.kind, owner), 0) + p.tokens
    return counts


def validate(tpn: TimedEventGraph) -> None:
    """Raise :class:`StructuralError` on any structural inconsistency."""
    if not is_live(tpn):
        raise StructuralError("timed event graph is not live (zero-token cycle)")
    for key, tokens in resource_token_invariant(tpn).items():
        if tokens != 1:
            raise StructuralError(f"resource cycle {key} carries {tokens} tokens != 1")
