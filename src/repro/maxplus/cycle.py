"""Maximum cycle ratio of a token graph: one kernel and its oracle.

The period of a strongly connected timed event graph is the *maximum cycle
ratio* of its token graph::

    P  =  max over cycles C of  Σ_{arc ∈ C} weight / Σ_{arc ∈ C} tokens

(paper Section 4, after [2]).

* :func:`max_cycle_ratio` — the kernel every caller uses: multichain
  Howard policy iteration (Cochet-Terrasson et al., IFAC 1998; Dasdan,
  ACM TODAES 2004) over plain Python adjacency lists. Nodes that reach no
  cycle are pruned and every other node keeps one *policy* arc. Each
  component of the policy graph holds exactly one cycle, so evaluating a
  policy gives every node the ratio of the cycle it leads to and a
  potential. Improvement switches arcs lexicographically on
  (ratio, potential) until a fixed point certifies the optimum; the best
  cycle of the final policy is the returned witness.
* :func:`max_cycle_ratio_brute_force` — explicit enumeration of simple
  cycles via networkx; exponential, reserved for the test-suite oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.exceptions import ConvergenceError, StructuralError
from repro.maxplus.graph import TokenGraph
from repro.telemetry.profile import profile_span

#: Ratios and potentials closer than this, times the largest arc weight
#: (at least 1), count as equal: float noise then cannot make the policy
#: switch back and forth.
_RTOL = 1e-11

#: An arc as the kernel stores it: ``(head, weight, tokens)``.
_Arc = tuple[int, float, int]


@dataclass(frozen=True, slots=True)
class CycleResult:
    """A critical cycle and its ratio."""

    ratio: float
    nodes: tuple[int, ...]
    total_weight: float
    total_tokens: int


def max_cycle_ratio(graph: TokenGraph) -> CycleResult | None:
    """Maximum cycle ratio of a token graph, or ``None`` if acyclic.

    Raises :class:`StructuralError` when the graph contains a zero-token
    cycle (a dead timed event graph whose ratio would be infinite), and
    :class:`ConvergenceError` if the policy iteration exceeds its bound.
    """
    with profile_span("critical_cycle"):
        return _max_cycle_ratio(graph)


def _max_cycle_ratio(graph: TokenGraph) -> CycleResult | None:
    if graph.has_zero_token_cycle():
        raise StructuralError("graph has a zero-token cycle: the TPN is not live")
    n = graph.n_nodes
    out: list[list[_Arc]] = [[] for _ in range(n)]
    preds: list[list[int]] = [[] for _ in range(n)]
    scale = 1.0
    for a in graph:
        out[a.src].append((a.dst, a.weight, a.tokens))
        preds[a.dst].append(a.src)
        scale = max(scale, abs(a.weight))
    eps = _RTOL * scale

    # Prune the nodes that reach no cycle: strip out-degree-0 nodes until
    # every remaining node keeps an out-arc to a remaining node.
    degree = [len(arcs) for arcs in out]
    stack = [u for u in range(n) if not degree[u]]
    while stack:
        for u in preds[stack.pop()]:
            degree[u] -= 1
            if not degree[u]:
                stack.append(u)
    alive = [u for u in range(n) if degree[u]]
    if not alive:
        return None
    for u in alive:
        out[u] = [arc for arc in out[u] if degree[arc[0]]]

    # The policy: one out-arc per node, first the heaviest. Pruned nodes
    # are never visited, so their entries do not matter.
    policy = [max(arcs, key=lambda arc: arc[1], default=None) for arcs in out]
    ratio = [0.0] * n
    pot = [0.0] * n
    for _ in range(50 * graph.n_arcs + 100):
        cycles = _evaluate(alive, policy, ratio, pot)
        switches = _improve(alive, out, policy, ratio, pot, eps)
        if not switches:
            r, nodes, w, t = max(cycles, key=lambda c: c[0])
            return CycleResult(r, tuple(nodes), w, t)
        for u, arc in switches:
            policy[u] = arc
    raise ConvergenceError("Howard policy iteration did not converge")


def _evaluate(
    alive: list[int],
    policy: list[_Arc | None],
    ratio: list[float],
    pot: list[float],
) -> list[tuple[float, list[int], float, int]]:
    """Ratios and potentials of a policy; returns its cycles.

    ``ratio[u]`` becomes the ratio of the cycle ``u`` leads to, and the
    potentials satisfy ``pot[u] = w - ratio[u]·t + pot[v]`` for the policy
    arc ``(v, w, t)`` of ``u``. Each cycle keeps the potential of the node
    where it is entered, so a cycle that survives from the previous policy
    keeps all its potentials.
    """
    cycles = []
    state = [0] * len(policy)  # 0 new, 1 on the walk, 2 evaluated
    for start in alive:
        if state[start]:
            continue
        walk = []
        u = start
        while not state[u]:
            state[u] = 1
            walk.append(u)
            u = policy[u][0]
        tree = walk
        if state[u] == 1:  # the walk closed a new cycle at u
            k = walk.index(u)
            cycle, tree = walk[k:], walk[:k]
            total_w = sum(policy[x][1] for x in cycle)
            total_t = sum(policy[x][2] for x in cycle)
            r = total_w / total_t
            cycles.append((r, cycle, total_w, total_t))
            ratio[u] = r
            for x in reversed(cycle[1:]):
                v, w, t = policy[x]
                ratio[x] = r
                pot[x] = w - r * t + pot[v]
        for x in reversed(tree):
            v, w, t = policy[x]
            ratio[x] = ratio[v]
            pot[x] = w - ratio[v] * t + pot[v]
        for x in walk:
            state[x] = 2
    return cycles


def _improve(
    alive: list[int],
    out: list[list[_Arc]],
    policy: list[_Arc | None],
    ratio: list[float],
    pot: list[float],
    eps: float,
) -> list[tuple[int, _Arc]]:
    """The policy switches that improve ``(ratio, potential)``.

    Arcs towards a larger ratio win first; only when no node can raise its
    ratio do arcs of equal ratio compete on potential. An empty list means
    the policy is optimal.
    """
    switches = []
    for u in alive:
        best, choice = ratio[u] + eps, None
        for arc in out[u]:
            if ratio[arc[0]] > best:
                best, choice = ratio[arc[0]], arc
        if choice is not None:
            switches.append((u, choice))
    if switches:
        return switches
    for u in alive:
        r = ratio[u]
        v, w, t = policy[u]
        best, choice = w - r * t + pot[v] + eps, None
        for arc in out[u]:
            v, w, t = arc
            if ratio[v] >= r - eps:
                value = w - r * t + pot[v]
                if value > best:
                    best, choice = value, arc
        if choice is not None:
            switches.append((u, choice))
    return switches


def max_cycle_ratio_brute_force(graph: TokenGraph) -> CycleResult | None:
    """Oracle: enumerate simple cycles with networkx (exponential).

    The maximum cycle ratio is always attained on a simple cycle, so the
    enumeration is a valid (if slow) reference implementation used by the
    test-suite to validate :func:`max_cycle_ratio`.
    """
    import networkx as nx

    g = graph.to_networkx()
    best: CycleResult | None = None
    for cyc in nx.simple_cycles(g):
        k = len(cyc)
        # Parallel arcs: the ratio-maximizing choice per hop depends on the
        # other hops, so try every combination (bundles are tiny here).
        options_per_hop = []
        for i in range(k):
            u, v = cyc[i], cyc[(i + 1) % k]
            bundle = [
                (d["weight"], d["tokens"]) for d in g.get_edge_data(u, v).values()
            ]
            options_per_hop.append(bundle)
        for combo in itertools.product(*options_per_hop):
            total_w = sum(w for w, _ in combo)
            total_t = sum(t for _, t in combo)
            if total_t == 0:
                raise StructuralError("zero-token cycle in brute-force oracle")
            ratio = total_w / total_t
            if best is None or ratio > best.ratio:
                best = CycleResult(ratio, tuple(cyc), total_w, int(total_t))
    return best
