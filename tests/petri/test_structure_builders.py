"""Tests for structural net queries and the builder helpers."""

import pytest

from repro.petri import PetriNet
from repro.petri.structure import (
    conflict_places,
    is_live_reversible_marked_graph,
    is_marked_graph,
    isolated_places,
    source_transitions,
)

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


#: Two rings, ``t`` through ``p0``/``p1`` and ``u`` through ``pu0``/``pu1``.
RING_T = [("p0", "t0"), ("t0", "p1"), ("p1", "t1"), ("t1", "p0")]
RING_U = [("pu0", "u0"), ("u0", "pu1"), ("pu1", "u1"), ("u1", "pu0")]


class TestLiveReversibleMarkedGraph:
    @pytest.mark.parametrize("arcs, marking, expected", [
        (RING_T, {"p0": 1}, True),
        (RING_T, {}, False),  # an unmarked circuit: not live
        (RING_T + RING_U, {"p0": 1}, False),
        (RING_T + RING_U, {"p0": 1, "pu1": 1}, True),
        # pb carries tokens from ring t to ring u and lies on no circuit
        (RING_T + RING_U + [("t0", "pb"), ("pb", "u0")],
         {"p0": 1, "pu0": 1}, False),
        # ... unless ring u feeds back to ring t
        (RING_T + RING_U + [("t0", "pb"), ("pb", "u0"),
                            ("u1", "pc"), ("pc", "t0")],
         {"p0": 1, "pu0": 1, "pc": 1}, True),
        ([("p0", "t0"), ("t0", "p1")], {"p0": 1}, False),  # source place
        (RING_T + [("p0", "t2"), ("t2", "p1")], {"p0": 1}, False),
        (RING_T + [("t0", "ps"), ("ps", "t0")], {"p0": 1, "ps": 1}, True),
    ], ids=["marked_ring", "unmarked_ring", "one_ring_unmarked",
            "both_rings_marked", "bridge", "bridge_closed", "source_place",
            "choice", "marked_self_loop"])
    def test_structure_decides_liveness_and_reversibility(
            self, arcs, marking, expected):
        net = net_from_arcs(arcs, initial_marking=marking)
        assert is_live_reversible_marked_graph(net) is expected

    def test_a_transition_without_input_place_fails(self):
        net = net_from_arcs(RING_T, initial_marking={"p0": 1})
        net.add_transition("orphan")
        assert is_marked_graph(net)
        assert not is_live_reversible_marked_graph(net)

    def test_marked_graph_allows_missing_sides(self):
        assert is_marked_graph(net_from_arcs([("p0", "t0"), ("t0", "p1")]))
        assert not is_marked_graph(net_from_arcs(RING_T + [("p0", "t2")]))


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
