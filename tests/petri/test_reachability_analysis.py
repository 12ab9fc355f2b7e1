"""Tests for explicit reachability, boundedness, deadlock and persistency."""

import pytest

from repro.petri import Marking, PetriNet, build_reachability_graph
from repro.petri.analysis import (
    check_boundedness,
    check_transition_persistency,
    find_deadlocks,
    is_quasi_live,
    is_safe,
    live_transitions,
)
from repro.petri.reachability import BoundViolation

from tests.petri.builders import chain, free_choice_cell, net_from_arcs, parallel_join


@pytest.fixture
def cycle():
    """A closed 3-transition cycle: 3 reachable markings, no deadlock."""
    return chain(["t0", "t1", "t2"], closed=True)


@pytest.fixture
def unbounded_net():
    """A net whose single transition produces tokens forever."""
    net = PetriNet("unbounded")
    net.add_place("src", tokens=1)
    net.add_place("sink")
    net.add_transition("emit")
    net.add_arc("src", "emit")
    net.add_arc("emit", "src")
    net.add_arc("emit", "sink")
    return net


@pytest.fixture
def conflict_net():
    """Two transitions compete for one token: a classical direct conflict."""
    return net_from_arcs(
        [("p0", "ta"), ("p0", "tb"), ("ta", "pa"), ("tb", "pb")],
        initial_marking={"p0": 1},
    )


class TestReachabilityGraph:
    def test_cycle_marking_count(self, cycle):
        graph = build_reachability_graph(cycle)
        assert graph.num_markings == 3
        assert graph.num_edges == 3

    def test_initial_marking_contained(self, cycle):
        graph = build_reachability_graph(cycle)
        assert graph.contains(cycle.initial_marking)

    def test_successors_labelled_with_transitions(self, cycle):
        graph = build_reachability_graph(cycle)
        start = cycle.initial_marking
        successors = graph.successors(start)
        assert len(successors) == 1
        transition, _target = successors[0]
        assert cycle.has_transition(transition)

    def test_parallel_join_state_count(self):
        # Two branches of 2 transitions: between fork and join the branches
        # interleave freely -> 3x3 intermediate positions.
        net = parallel_join([["a0", "a1"], ["b0", "b1"]])
        graph = build_reachability_graph(net)
        # idle + 9 interleavings + done = 11 markings.
        assert graph.num_markings == 11

    def test_max_markings_cap(self):
        net = parallel_join([["a0", "a1"], ["b0", "b1"]])
        with pytest.raises(BoundViolation):
            build_reachability_graph(net, max_markings=4)

    def test_bound_cap_detects_unsafe(self, unbounded_net):
        with pytest.raises(BoundViolation):
            build_reachability_graph(unbounded_net, max_markings=10, bound=1)

    def test_unknown_marking_query_raises(self, cycle):
        graph = build_reachability_graph(cycle)
        from repro.petri import PetriNetError

        with pytest.raises(PetriNetError):
            graph.successors(Marking({"nowhere": 1}))

    def test_custom_initial_marking(self, cycle):
        other_start = Marking({"p_t1_t2": 1})
        graph = build_reachability_graph(cycle, initial=other_start)
        assert graph.initial == other_start
        assert graph.num_markings == 3

    def test_edges_iteration_consistent_with_counts(self, cycle):
        graph = build_reachability_graph(cycle)
        assert len(list(graph.edges())) == graph.num_edges


class TestBoundedness:
    def test_safe_net(self, cycle):
        result = check_boundedness(cycle)
        assert result.bounded and result.safe
        assert result.bound == 1
        assert is_safe(cycle)

    def test_unbounded_net_reported(self, unbounded_net):
        result = check_boundedness(unbounded_net, max_markings=50)
        assert not result.bounded

    def test_two_bounded_net(self):
        # Two producers fill a shared buffer place: 2-bounded, not safe.
        net = PetriNet()
        net.add_place("a", tokens=1)
        net.add_place("b", tokens=1)
        net.add_place("buf")
        net.add_transition("ta")
        net.add_transition("tb")
        net.add_arc("a", "ta")
        net.add_arc("ta", "buf")
        net.add_arc("b", "tb")
        net.add_arc("tb", "buf")
        result = check_boundedness(net)
        assert result.bounded
        assert result.bound == 2
        assert not result.safe


class TestDeadlocksAndLiveness:
    def test_cycle_has_no_deadlock(self, cycle):
        assert find_deadlocks(cycle) == []

    def test_choice_net_consumes_token_and_deadlocks(self, conflict_net):
        deadlocks = find_deadlocks(conflict_net)
        assert len(deadlocks) == 2  # either branch ends stuck

    def test_live_transitions(self, conflict_net):
        assert set(live_transitions(conflict_net)) == {"ta", "tb"}

    def test_quasi_liveness(self, cycle, conflict_net):
        assert is_quasi_live(cycle)
        assert is_quasi_live(conflict_net)

    def test_dead_transition_detected(self):
        net = net_from_arcs([("p0", "t0"), ("t0", "p1")],
                            initial_marking={"p0": 1})
        net.add_transition("never")
        net.add_place("unmarked")
        net.add_arc("unmarked", "never")
        assert not is_quasi_live(net)


class TestTransitionPersistency:
    def test_marked_graph_is_persistent(self, cycle):
        result = check_transition_persistency(cycle)
        assert result.persistent
        assert result.violations == []

    def test_direct_conflict_detected(self, conflict_net):
        result = check_transition_persistency(conflict_net)
        assert not result.persistent
        pairs = result.conflicting_pairs()
        assert ("ta", "tb") in pairs and ("tb", "ta") in pairs

    def test_first_violation_only_stops_early(self, conflict_net):
        result = check_transition_persistency(conflict_net,
                                              first_violation_only=True)
        assert not result.persistent
        assert len(result.violations) == 1

    def test_free_choice_cell_conflict(self):
        net = free_choice_cell({"ta": ["ta2"], "tb": []})
        result = check_transition_persistency(net)
        assert not result.persistent

    def test_concurrent_transitions_are_persistent(self):
        net = parallel_join([["a0"], ["b0"]])
        assert check_transition_persistency(net).persistent
