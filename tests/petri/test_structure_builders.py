"""Tests for structural net queries and the builder helpers."""

import pytest

from repro.petri import PetriNet
from repro.petri.structure import conflict_places, isolated_places, source_transitions

from tests.petri.builders import chain, net_from_arcs, parallel_join


class TestStructuralQueries:
    def test_chain_has_no_conflict_place(self):
        net = chain(["t0", "t1", "t2"], closed=True)
        assert conflict_places(net) == []

    def test_conflict_places(self):
        net = net_from_arcs(
            [("p0", "ta"), ("p0", "tb"), ("ta", "p1"), ("tb", "p1")],
            initial_marking={"p0": 1},
        )
        assert conflict_places(net) == ["p0"]

    def test_source_transitions_and_isolated_places(self):
        net = PetriNet()
        net.add_transition("orphan_t")
        net.add_place("orphan_p")
        assert source_transitions(net) == ["orphan_t"]
        assert isolated_places(net) == ["orphan_p"]


class TestNetFromArcs:
    def test_place_inference_by_prefix(self):
        net = net_from_arcs([("p0", "t0"), ("t0", "p1")],
                            initial_marking={"p0": 1})
        assert net.has_place("p0") and net.has_place("p1")
        assert net.has_transition("t0")
        assert net.initial_marking["p0"] == 1

    def test_explicit_kind_declarations_override_prefix(self):
        net = net_from_arcs([("start", "proc"), ("proc", "finish")],
                            places=["start", "finish"],
                            transitions=["proc"],
                            initial_marking={"start": 1})
        assert net.has_place("start") and net.has_transition("proc")

    def test_conflicting_declarations_rejected(self):
        with pytest.raises(ValueError):
            net_from_arcs([], places=["x"], transitions=["x"])

    def test_marked_place_without_arcs_created(self):
        net = net_from_arcs([("p0", "t0"), ("t0", "p1")],
                            initial_marking={"p0": 1, "p_extra": 1})
        assert net.has_place("p_extra")

    def test_declared_unused_nodes_created(self):
        net = net_from_arcs([("p0", "t0"), ("t0", "p1")],
                            initial_marking={"p0": 1},
                            places=["p_lone"], transitions=["t_lone"])
        assert net.has_place("p_lone")
        assert net.has_transition("t_lone")


class TestChainBuilder:
    def test_open_chain_has_start_place(self):
        net = chain(["t0", "t1"])
        assert net.has_place("p_start")
        assert net.initial_marking["p_start"] == 1

    def test_closed_chain_token_position(self):
        net = chain(["t0", "t1", "t2"], closed=True, marked_place=1)
        assert net.initial_marking["p_t1_t2"] == 1

    def test_empty_chain(self):
        net = chain([])
        assert net.num_transitions == 0
        assert net.num_places == 0


class TestParallelJoinBuilder:
    def test_branch_transitions_present(self):
        net = parallel_join([["a0", "a1"], ["b0"]])
        for name in ("fork", "join", "a0", "a1", "b0"):
            assert net.has_transition(name)

    def test_single_token_at_start(self):
        net = parallel_join([["a0"], ["b0"]])
        assert net.initial_marking.total_tokens() == 1
