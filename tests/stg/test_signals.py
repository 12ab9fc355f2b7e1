"""Unit tests for signal kinds and signal-transition labels."""

import pytest

from repro.stg import STGError, SignalKind, SignalTransition


class TestSignalKind:
    def test_input_is_input(self):
        assert SignalKind.INPUT.is_input
        assert not SignalKind.INPUT.is_noninput

    def test_output_and_internal_are_noninput(self):
        assert SignalKind.OUTPUT.is_noninput
        assert SignalKind.INTERNAL.is_noninput
        assert not SignalKind.OUTPUT.is_input


class TestLabelParsing:
    def test_parse_rising(self):
        label = SignalTransition.parse("req+")
        assert label.signal == "req"
        assert label.is_rising and not label.is_falling
        assert label.index == 1

    def test_parse_falling_with_index(self):
        label = SignalTransition.parse("ack-/3")
        assert label.signal == "ack"
        assert label.is_falling
        assert label.index == 3

    def test_parse_strips_whitespace(self):
        assert SignalTransition.parse("  a+ ").signal == "a"

    def test_parse_dotted_and_bracketed_names(self):
        assert SignalTransition.parse("bus.req[3]+").signal == "bus.req[3]"

    def test_invalid_labels_rejected(self):
        for text in ("a", "a*", "+a", "a+/0", "a+/x", "", "a +"):
            with pytest.raises(STGError):
                SignalTransition.parse(text)

    def test_roundtrip_str(self):
        for text in ("a+", "b-", "a+/2", "sig_3-/7"):
            assert str(SignalTransition.parse(text)) == text


class TestLabelSemantics:
    def test_target_value(self):
        assert SignalTransition.parse("a+").target_value is True
        assert SignalTransition.parse("a-").target_value is False

    def test_generic_name_drops_index(self):
        assert SignalTransition.parse("a+/5").generic == "a+"

    def test_equality_and_hash(self):
        assert SignalTransition.parse("x+") == SignalTransition("x", "+", 1)
        assert hash(SignalTransition.parse("x+")) == hash(SignalTransition("x", "+"))

    def test_invalid_polarity_rejected(self):
        with pytest.raises(STGError):
            SignalTransition("a", "*")

    def test_invalid_index_rejected(self):
        with pytest.raises(STGError):
            SignalTransition("a", "+", 0)
