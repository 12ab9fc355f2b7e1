"""Unit tests for the PetriNet structure and firing rule."""

import pytest

from repro.petri import Marking, PetriNet, PetriNetError


@pytest.fixture
def producer_consumer():
    """A tiny producer/consumer net with a 1-slot buffer."""
    net = PetriNet("producer_consumer")
    net.add_place("idle_p", tokens=1)
    net.add_place("ready_p")
    net.add_place("buffer")
    net.add_place("idle_c", tokens=1)
    net.add_place("ready_c")
    net.add_transition("produce")
    net.add_transition("send")
    net.add_transition("receive")
    net.add_transition("consume")
    for source, target in [
        ("idle_p", "produce"), ("produce", "ready_p"),
        ("ready_p", "send"), ("send", "idle_p"), ("send", "buffer"),
        ("buffer", "receive"), ("idle_c", "receive"), ("receive", "ready_c"),
        ("ready_c", "consume"), ("consume", "idle_c"),
    ]:
        net.add_arc(source, target)
    return net


class TestConstruction:
    def test_counts(self, producer_consumer):
        assert producer_consumer.num_places == 5
        assert producer_consumer.num_transitions == 4

    def test_duplicate_place_rejected(self):
        net = PetriNet()
        net.add_place("p")
        with pytest.raises(PetriNetError):
            net.add_place("p")

    def test_duplicate_transition_rejected(self):
        net = PetriNet()
        net.add_transition("t")
        with pytest.raises(PetriNetError):
            net.add_transition("t")

    def test_name_collision_between_kinds_rejected(self):
        net = PetriNet()
        net.add_place("x")
        with pytest.raises(PetriNetError):
            net.add_transition("x")

    def test_arc_must_connect_place_and_transition(self):
        net = PetriNet()
        net.add_place("p1")
        net.add_place("p2")
        net.add_transition("t1")
        net.add_transition("t2")
        with pytest.raises(PetriNetError):
            net.add_arc("p1", "p2")
        with pytest.raises(PetriNetError):
            net.add_arc("t1", "t2")

    def test_arc_to_unknown_node_rejected(self):
        net = PetriNet()
        net.add_place("p")
        with pytest.raises(PetriNetError):
            net.add_arc("p", "ghost")

    def test_duplicate_arcs_collapse(self, producer_consumer):
        producer_consumer.add_arc("idle_p", "produce")
        assert producer_consumer.preset_of_transition("produce") == {"idle_p"}

    def test_remove_arc(self, producer_consumer):
        producer_consumer.remove_arc("idle_p", "produce")
        assert producer_consumer.preset_of_transition("produce") == set()
        assert "produce" not in producer_consumer.postset_of_place("idle_p")

    def test_remove_arc_is_noop_when_absent(self, producer_consumer):
        producer_consumer.remove_arc("buffer", "consume")  # no such arc
        assert producer_consumer.preset_of_transition("consume") == {"ready_c"}

    def test_remove_arc_invalid_endpoints_rejected(self, producer_consumer):
        with pytest.raises(PetriNetError):
            producer_consumer.remove_arc("idle_p", "buffer")

    def test_negative_initial_tokens_rejected(self):
        net = PetriNet()
        with pytest.raises(PetriNetError):
            net.add_place("p", tokens=-1)


class TestNeighbourhoods:
    def test_transition_preset_postset(self, producer_consumer):
        assert producer_consumer.preset_of_transition("send") == {"ready_p"}
        assert producer_consumer.postset_of_transition("send") == {"idle_p", "buffer"}

    def test_place_preset_postset(self, producer_consumer):
        assert producer_consumer.preset_of_place("buffer") == {"send"}
        assert producer_consumer.postset_of_place("buffer") == {"receive"}

    def test_unknown_node_raises(self, producer_consumer):
        with pytest.raises(PetriNetError):
            producer_consumer.preset_of_transition("ghost")
        with pytest.raises(PetriNetError):
            producer_consumer.postset_of_place("ghost")

    def test_arcs_iteration(self, producer_consumer):
        arcs = set(producer_consumer.arcs())
        assert ("idle_p", "produce") in arcs
        assert ("send", "buffer") in arcs
        assert len(arcs) == 10


class TestFiring:
    def test_initial_marking(self, producer_consumer):
        assert producer_consumer.initial_marking == Marking(
            {"idle_p": 1, "idle_c": 1})

    def test_enabled_transitions_at_start(self, producer_consumer):
        enabled = producer_consumer.enabled_transitions(
            producer_consumer.initial_marking)
        assert enabled == ["produce"]

    def test_fire_moves_tokens(self, producer_consumer):
        m0 = producer_consumer.initial_marking
        m1 = producer_consumer.fire("produce", m0)
        assert m1 == Marking({"ready_p": 1, "idle_c": 1})

    def test_fire_disabled_transition_rejected(self, producer_consumer):
        with pytest.raises(PetriNetError):
            producer_consumer.fire("consume", producer_consumer.initial_marking)

    def test_firing_the_cycle_returns_to_the_initial_marking(
            self, producer_consumer):
        marking = producer_consumer.initial_marking
        for transition in ("produce", "send", "receive", "consume"):
            marking = producer_consumer.fire(transition, marking)
        assert marking == producer_consumer.initial_marking

    def test_fire_does_not_mutate_input_marking(self, producer_consumer):
        m0 = producer_consumer.initial_marking
        producer_consumer.fire("produce", m0)
        assert m0 == producer_consumer.initial_marking

    def test_set_initial_tokens(self, producer_consumer):
        producer_consumer.set_initial_tokens("buffer", 1)
        assert producer_consumer.initial_marking["buffer"] == 1


class TestCopy:
    def test_copy_is_deep_for_structure(self, producer_consumer):
        clone = producer_consumer.copy()
        clone.add_place("extra")
        assert not producer_consumer.has_place("extra")

    def test_copy_preserves_marking_and_arcs(self, producer_consumer):
        clone = producer_consumer.copy()
        assert clone.initial_marking == producer_consumer.initial_marking
        assert set(clone.arcs()) == set(producer_consumer.arcs())

    def test_copy_preserves_labels(self):
        net = PetriNet()
        net.add_transition("t", label=("a", 1, "+"))
        assert net.copy().transition("t").label == ("a", 1, "+")
