"""Tests for the timed event graph builders and structural analysis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import StateSpaceLimitError, StructuralError
from repro.mapping.examples import example_a
from repro.petri import (
    build_overlap_tpn,
    build_strict_tpn,
    build_tpn,
    explore,
    is_feed_forward,
    is_live,
    is_strongly_connected,
    resource_token_invariant,
    strongly_connected_components,
    subnet,
    validate,
)
from repro.petri.net import TimedEventGraph
from repro.types import PlaceKind, TransitionKind

from tests.conftest import make_mapping


class TestNetStructure:
    def test_grid_shape(self, three_stage_mixed):
        tpn = build_overlap_tpn(three_stage_mixed)
        assert tpn.n_rows == 4
        assert tpn.n_columns == 5  # 2N - 1
        assert (tpn.grid >= 0).all()
        assert tpn.n_transitions == 4 * 5

    def test_transition_metadata(self, three_stage_mixed):
        tpn = build_overlap_tpn(three_stage_mixed)
        t = tpn.transitions[int(tpn.grid[2, 1])]  # compute of stage 2, row 1
        assert t.kind is TransitionKind.COMPUTE
        assert t.stage == 1
        assert t.resource == ("cpu", three_stage_mixed.processor(1, 1))

    def test_comm_resources_follow_roundrobin(self, three_stage_mixed):
        mp = three_stage_mixed
        tpn = build_overlap_tpn(mp)
        for j in range(mp.n_rows):
            t = tpn.transitions[int(tpn.grid[1, j])]
            assert t.resource == ("link", mp.processor(0, j), mp.processor(1, j))

    def test_mean_times_from_mapping(self):
        mp = make_mapping([[0], [1]], works=[2.0, 3.0], files=[4.0])
        tpn = build_overlap_tpn(mp)
        means = {t.label: t.mean_time for t in tpn.transitions}
        assert means["T1^(0)@P0"] == 2.0
        assert means["T2^(0)@P1"] == 3.0
        assert means["F1^(0)@P0->P1"] == 4.0

    def test_last_column(self, three_stage_mixed):
        tpn = build_overlap_tpn(three_stage_mixed)
        last = tpn.last_column_transitions()
        assert len(last) == 4
        assert all(tpn.transitions[t].column == 4 for t in last)

    def test_place_endpoint_validation(self):
        tpn = TimedEventGraph(n_rows=1, n_columns=1)
        tpn.add_transition(TransitionKind.COMPUTE, 0, 0, 0, ("cpu", 0), 1.0)
        with pytest.raises(StructuralError):
            tpn.add_place(0, 3, 0, PlaceKind.FLOW)

    def test_size_guard(self):
        from repro.mapping.examples import example_c

        with pytest.raises(StateSpaceLimitError):
            build_overlap_tpn(example_c(), max_transitions=1000)


def token_ring(*, dead_arc: bool) -> TimedEventGraph:
    """Three transitions on a one-token ring 0 → 1 → 2 → 0.

    ``dead_arc`` adds an unmarked place 2 → 1, which closes the cycle
    1 → 2 → 1 with no token on it: neither transition can ever fire.
    """
    tpn = TimedEventGraph(n_rows=1, n_columns=3)
    for t in range(3):
        tpn.add_transition(TransitionKind.COMPUTE, t, 0, t, ("cpu", t), 1.0)
    tpn.add_place(0, 1, 0, PlaceKind.FLOW)
    tpn.add_place(1, 2, 0, PlaceKind.FLOW)
    tpn.add_place(2, 0, 1, PlaceKind.FLOW)
    if dead_arc:
        tpn.add_place(2, 1, 0, PlaceKind.CAPACITY)
    return tpn


class TestLiveness:
    def test_marked_ring_is_live(self):
        assert is_live(token_ring(dead_arc=False))

    def test_zero_token_cycle_is_not_live(self):
        tpn = token_ring(dead_arc=True)
        assert not is_live(tpn)
        with pytest.raises(StructuralError, match="not live"):
            validate(tpn)


class TestOverlapBuilder:
    def test_feed_forward(self, three_stage_mixed):
        """Overlap nets never point backwards (Theorem 3's hypothesis)."""
        assert is_feed_forward(build_overlap_tpn(three_stage_mixed))

    def test_live_and_valid(self, three_stage_mixed):
        tpn = build_overlap_tpn(three_stage_mixed)
        assert is_live(tpn)
        validate(tpn)

    def test_one_token_per_resource_cycle(self, three_stage_mixed):
        tpn = build_overlap_tpn(three_stage_mixed)
        counts = resource_token_invariant(tpn)
        assert counts and all(v == 1 for v in counts.values())

    def test_not_strongly_connected(self, three_stage_mixed):
        assert not is_strongly_connected(build_overlap_tpn(three_stage_mixed))

    def test_place_count(self):
        """Count the four place families of Section 3.2 explicitly."""
        mp = make_mapping([[0], [1, 2], [3, 4, 5, 6]])
        tpn = build_overlap_tpn(mp)
        m, n = 4, 3
        flow = sum(1 for p in tpn.places if p.kind is PlaceKind.FLOW)
        proc = sum(1 for p in tpn.places if p.kind is PlaceKind.PROC_CYCLE)
        outp = sum(1 for p in tpn.places if p.kind is PlaceKind.OUT_PORT)
        inp = sum(1 for p in tpn.places if p.kind is PlaceKind.IN_PORT)
        assert flow == m * (2 * n - 2)
        assert proc == m * n  # one place per compute transition
        assert outp == m * (n - 1)
        assert inp == m * (n - 1)

    def test_scc_structure_matches_columns(self, three_stage_mixed):
        """Overlap SCCs live inside single columns (proof of Theorem 3)."""
        tpn = build_overlap_tpn(three_stage_mixed)
        for comp in strongly_connected_components(tpn):
            cols = {tpn.transitions[t].column for t in comp}
            assert len(cols) == 1

    def test_comm_column_component_count(self):
        """gcd(R_i, R_{i+1}) connected components per communication."""
        mp = make_mapping([list(range(4)), list(range(4, 10))])
        tpn = build_overlap_tpn(mp)
        comm_comps = [
            c
            for c in strongly_connected_components(tpn)
            if tpn.transitions[c[0]].column == 1 and len(c) > 1
        ]
        assert len(comm_comps) == 2  # gcd(4, 6)

    def test_buffer_capacity_places(self, two_stage_2x3):
        plain = build_overlap_tpn(two_stage_2x3)
        capped = build_overlap_tpn(two_stage_2x3, buffer_capacity=3)
        caps = [p for p in capped.places if p.kind is PlaceKind.CAPACITY]
        flows = [p for p in plain.places if p.kind is PlaceKind.FLOW]
        assert len(caps) == len(flows)
        assert all(p.tokens == 3 for p in caps)

    def test_buffer_capacity_validation(self, two_stage_2x3):
        with pytest.raises(ValueError):
            build_overlap_tpn(two_stage_2x3, buffer_capacity=0)

    def test_example_a_grid(self):
        tpn = build_overlap_tpn(example_a())
        assert tpn.n_rows == 6
        assert tpn.n_columns == 7


class TestStrictBuilder:
    def test_not_feed_forward(self, three_stage_mixed):
        """Strict nets have the backward edges of Section 3.3."""
        assert not is_feed_forward(build_strict_tpn(three_stage_mixed))

    def test_live_and_valid(self, three_stage_mixed):
        tpn = build_strict_tpn(three_stage_mixed)
        assert is_live(tpn)
        validate(tpn)

    def test_strongly_connected(self, three_stage_mixed):
        """Connected mappings yield strongly connected Strict nets."""
        assert is_strongly_connected(build_strict_tpn(three_stage_mixed))

    def test_single_stage_equals_overlap(self):
        """With one stage there is nothing to overlap: same net shape."""
        mp = make_mapping([[0, 1, 2]])
        o = build_overlap_tpn(mp)
        s = build_strict_tpn(mp)
        assert o.n_transitions == s.n_transitions
        assert len(o.places) == len(s.places)

    def test_one_token_per_processor_chain(self, three_stage_mixed):
        tpn = build_strict_tpn(three_stage_mixed)
        counts = resource_token_invariant(tpn)
        strict_counts = {
            k: v for k, v in counts.items() if k[0] is PlaceKind.STRICT_CYCLE
        }
        assert strict_counts and all(v == 1 for v in strict_counts.values())

    def test_grid_same_as_overlap(self, three_stage_mixed):
        o = build_overlap_tpn(three_stage_mixed)
        s = build_strict_tpn(three_stage_mixed)
        assert np.array_equal(o.grid, s.grid)

    def test_build_tpn_dispatch(self, two_stage_2x3):
        assert is_feed_forward(build_tpn(two_stage_2x3, "overlap"))
        assert not is_feed_forward(build_tpn(two_stage_2x3, "strict"))


class TestSubnet:
    def test_saturation_drops_boundary_places(self, three_stage_mixed):
        tpn = build_overlap_tpn(three_stage_mixed)
        comps = strongly_connected_components(tpn)
        comm = next(
            c for c in comps if tpn.transitions[c[0]].column == 1 and len(c) > 1
        )
        sub, relabel = subnet(tpn, comm)
        assert sub.n_transitions == len(comm)
        # Every remaining place connects transitions inside the component.
        assert all(0 <= p.src < sub.n_transitions for p in sub.places)
        # Flow places from column 0 were dropped (saturated inputs).
        assert all(p.kind is not PlaceKind.FLOW for p in sub.places)


class TestReachability:
    def test_single_processor_cycle(self):
        """A 1-stage, 1-processor net has exactly one marking."""
        mp = make_mapping([[0]])
        tpn = build_overlap_tpn(mp)
        reach = explore(tpn)
        assert reach.n_states == 1
        assert reach.arcs[0] == [(0, 0)]  # self-loop firing

    def test_strict_two_stage_state_count(self):
        mp = make_mapping([[0], [1]])
        tpn = build_strict_tpn(mp)
        reach = explore(tpn)
        # Three serialized operations, one circulating token each plus the
        # chain structure: the marking graph is a small cycle.
        assert reach.n_states >= 3
        for s, moves in enumerate(reach.arcs):
            for _, s2 in moves:
                assert 0 <= s2 < reach.n_states

    def test_unbounded_net_detected(self, two_stage_2x3):
        tpn = build_overlap_tpn(two_stage_2x3)
        with pytest.raises(StructuralError, match="unbounded"):
            explore(tpn, place_bound=8)

    def test_capacity_makes_bounded(self, two_stage_2x3):
        tpn = build_overlap_tpn(two_stage_2x3, buffer_capacity=1)
        reach = explore(tpn)
        assert reach.n_states > 1
        # 1-safe with capacity 1: marking entries are 0/1.
        for s in range(reach.n_states):
            assert reach.marking(s).max() <= 1

    def test_max_states_guard(self):
        mp = make_mapping([[0, 1, 2], [3, 4, 5, 6]])
        tpn = build_overlap_tpn(mp, buffer_capacity=2)
        with pytest.raises(StateSpaceLimitError):
            explore(tpn, max_states=10)

    def test_marking_roundtrip(self, two_stage_2x3):
        tpn = build_overlap_tpn(two_stage_2x3, buffer_capacity=1)
        reach = explore(tpn)
        m0 = reach.marking(reach.initial)
        assert np.array_equal(m0, tpn.initial_marking())
