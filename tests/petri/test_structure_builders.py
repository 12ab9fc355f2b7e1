"""Tests for structural classification and the builder helpers."""

import pytest

from repro.petri import PetriNet
from repro.petri.structure import (
    conflict_places,
    is_free_choice,
    is_marked_graph,
    is_state_machine,
    isolated_places,
    merge_places,
    source_transitions,
    structural_conflict_pairs,
    summarize_structure,
)

from tests.petri.builders import chain, free_choice_cell, net_from_arcs, parallel_join


class TestStructuralClasses:
    def test_chain_is_marked_graph(self):
        net = chain(["t0", "t1", "t2"], closed=True)
        assert is_marked_graph(net)
        assert conflict_places(net) == []

    def test_choice_cell_is_state_machine(self):
        net = free_choice_cell({"ta": [], "tb": []})
        assert is_state_machine(net)
        assert not is_marked_graph(net)

    def test_parallel_join_is_marked_graph_but_not_state_machine(self):
        net = parallel_join([["a0"], ["b0"]])
        assert is_marked_graph(net)
        assert not is_state_machine(net)

    def test_free_choice_recognition(self):
        net = free_choice_cell({"ta": [], "tb": []})
        assert is_free_choice(net)

    def test_non_free_choice(self):
        # tb needs p0 and p1; ta needs only p0 -> asymmetric confusion.
        net = net_from_arcs(
            [("p0", "ta"), ("p0", "tb"), ("p1", "tb"),
             ("ta", "p2"), ("tb", "p3")],
            initial_marking={"p0": 1, "p1": 1},
        )
        assert not is_free_choice(net)

    def test_conflict_and_merge_places(self):
        net = net_from_arcs(
            [("p0", "ta"), ("p0", "tb"), ("ta", "p1"), ("tb", "p1")],
            initial_marking={"p0": 1},
        )
        assert conflict_places(net) == ["p0"]
        assert merge_places(net) == ["p1"]

    def test_structural_conflict_pairs(self):
        net = net_from_arcs(
            [("p0", "ta"), ("p0", "tb"), ("ta", "p1"), ("tb", "p2")],
            initial_marking={"p0": 1},
        )
        assert structural_conflict_pairs(net) == [("ta", "tb"), ("tb", "ta")]

    def test_source_transitions_and_isolated_places(self):
        net = PetriNet()
        net.add_transition("orphan_t")
        net.add_place("orphan_p")
        assert source_transitions(net) == ["orphan_t"]
        assert isolated_places(net) == ["orphan_p"]

    def test_summary(self):
        net = free_choice_cell({"ta": [], "tb": []})
        summary = summarize_structure(net)
        assert summary.num_places == 1
        assert summary.num_transitions == 2
        assert summary.conflict_places == ["p_choice"]
        assert summary.state_machine
        assert summary.as_dict()["free_choice"] is True


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
