"""Unit tests for the STG class."""

import pytest

from repro.stg import STG, STGError, SignalKind
from repro.stg.generators import handshake, mutex_element


class TestSignals:
    def test_declaration_and_kinds(self):
        stg = STG()
        stg.add_signal("r", SignalKind.INPUT)
        stg.add_signal("a", SignalKind.OUTPUT)
        stg.add_signal("x", SignalKind.INTERNAL)
        assert stg.inputs == ["r"]
        assert stg.outputs == ["a"]
        assert stg.internals == ["x"]
        assert stg.noninput_signals == ["a", "x"]
        assert stg.is_input("r") and not stg.is_input("a")

    def test_duplicate_signal_rejected(self):
        stg = STG()
        stg.add_signal("a", SignalKind.INPUT)
        with pytest.raises(STGError):
            stg.add_signal("a", SignalKind.OUTPUT)

    def test_unknown_signal_rejected(self):
        stg = STG()
        with pytest.raises(STGError):
            stg.kind_of("ghost")


class TestInitialValues:
    def test_values_from_declaration(self):
        stg = STG()
        stg.add_signal("a", SignalKind.INPUT, initial_value=True)
        assert stg.initial_value("a") is True

    def test_set_later(self):
        stg = STG()
        stg.add_signal("a", SignalKind.INPUT)
        assert stg.initial_value("a") is None
        stg.set_initial_value("a", False)
        assert stg.initial_value("a") is False

    def test_initial_state_vector_requires_all_values(self):
        stg = STG()
        stg.add_signal("a", SignalKind.INPUT, initial_value=False)
        stg.add_signal("b", SignalKind.OUTPUT)
        assert not stg.has_complete_initial_values()
        with pytest.raises(STGError):
            stg.initial_state_vector()
        stg.set_initial_value("b", True)
        assert stg.initial_state_vector() == {"a": False, "b": True}

    def test_set_initial_values_bulk(self):
        stg = STG()
        stg.add_signal("a", SignalKind.INPUT)
        stg.add_signal("b", SignalKind.INPUT)
        stg.set_initial_values({"a": True, "b": False})
        assert stg.initial_values == {"a": True, "b": False}


class TestTransitionsAndPlaces:
    def test_add_transition_requires_declared_signal(self):
        stg = STG()
        with pytest.raises(STGError):
            stg.add_transition("a+")

    def test_add_transition_and_label(self):
        stg = STG()
        stg.add_signal("a", SignalKind.OUTPUT)
        name = stg.add_transition("a+/2")
        assert name == "a+/2"
        assert stg.label_of(name).index == 2
        assert stg.signal_of(name) == "a"

    def test_duplicate_transition_rejected(self):
        stg = STG()
        stg.add_signal("a", SignalKind.OUTPUT)
        stg.add_transition("a+")
        with pytest.raises(STGError):
            stg.add_transition("a+")

    def test_ensure_transition_idempotent(self):
        stg = STG()
        stg.add_signal("a", SignalKind.OUTPUT)
        assert stg.ensure_transition("a+") == stg.ensure_transition("a+")
        assert stg.transitions == ["a+"]

    def test_transitions_of_signal_and_polarity(self):
        stg = STG()
        stg.add_signal("a", SignalKind.OUTPUT)
        stg.add_signal("b", SignalKind.INPUT)
        for label in ("a+", "a-", "a+/2", "b+"):
            stg.add_transition(label)
        assert sorted(stg.transitions_of_signal("a")) == ["a+", "a+/2", "a-"]
        assert sorted(stg.transitions_of("a", "+")) == ["a+", "a+/2"]
        assert stg.transitions_of("b", "-") == []

    def test_connect_creates_implicit_place(self):
        stg = STG()
        stg.add_signal("a", SignalKind.OUTPUT)
        place = stg.connect("a+", "a-")
        assert place == "<a+,a->"
        assert stg.net.preset_of_place(place) == {"a+"}
        assert stg.net.postset_of_place(place) == {"a-"}

    def test_connect_twice_creates_second_place(self):
        stg = STG()
        stg.add_signal("a", SignalKind.OUTPUT)
        first = stg.connect("a+", "a-")
        second = stg.connect("a+", "a-")
        assert first != second

    def test_label_of_unlabelled_transition(self):
        stg = STG()
        stg.net.add_transition("raw")
        with pytest.raises(STGError):
            stg.label_of("raw")


class TestBehaviourHelpers:
    def test_statistics(self):
        stats = mutex_element().statistics()
        assert stats["places"] == 9
        assert stats["transitions"] == 8
        assert stats["signals"] == 4
        assert stats["inputs"] == 2
        assert stats["outputs"] == 2

    def test_copy_is_independent(self):
        stg = handshake()
        clone = stg.copy()
        clone.add_signal("extra", SignalKind.INTERNAL)
        assert not stg.has_signal("extra")
        assert clone.initial_values == stg.initial_values

    def test_repr_mentions_name(self):
        assert "handshake" in repr(handshake())
