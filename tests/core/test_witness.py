"""Tests for witness (firing-sequence) extraction and the liveness phase."""

import pytest

from repro.api import ALL, EngineConfig, verify
from repro.core.encoding import SymbolicEncoding
from repro.core.image import SymbolicImage
from repro.core.traversal import symbolic_traversal
from repro.core.witness import WitnessError, explain_state, find_firing_sequence
from repro.stg.generators import (
    csc_violation_example,
    fake_conflict_d1,
    handshake,
    muller_pipeline,
    mutex_element,
    vme_read_cycle,
)
from tests.core import product_checks


def setup(stg):
    encoding = SymbolicEncoding(stg)
    image = SymbolicImage(encoding)
    reached, _ = symbolic_traversal(image)
    return encoding, image, reached


class TestFindFiringSequence:
    def test_empty_sequence_for_initial_state(self):
        stg = handshake()
        encoding, image, _ = setup(stg)
        assert find_firing_sequence(image, encoding.initial_state()) == []

    def test_sequence_to_specific_code(self):
        stg = handshake()
        encoding, image, _ = setup(stg)
        target = encoding.signal("r") & encoding.signal("a")
        sequence = find_firing_sequence(image, target)
        assert sequence == ["r+", "a+"]

    def test_sequence_is_replayable_on_the_net(self):
        stg = vme_read_cycle()
        encoding, image, reached = setup(stg)
        # Target: the famous CSC-conflict code on its quiescent side.
        qr_minus = product_checks.state_regions(encoding, reached, "d")[3]
        target = qr_minus & product_checks.contradictory_codes(
            encoding, reached, "d")
        sequence = find_firing_sequence(image, target)
        assert sequence
        marking = stg.initial_marking()
        values = dict(stg.initial_state_vector())
        for transition in sequence:
            assert stg.net.is_enabled(transition, marking)
            marking = stg.net.fire(transition, marking)
            label = stg.label_of(transition)
            values[label.signal] = label.target_value
        final = encoding.state_minterm(marking, values)
        assert final <= target

    def test_shortest_sequence_length(self):
        stg = muller_pipeline(3)
        encoding, image, _ = setup(stg)
        # Reaching c3=1 requires the wave to traverse all four signals.
        target = encoding.signal("c3")
        sequence = find_firing_sequence(image, target)
        assert len(sequence) == 4
        assert sequence == ["c0+", "c1+", "c2+", "c3+"]

    def test_unreachable_target_raises(self):
        stg = handshake()
        encoding, image, _ = setup(stg)
        # r and a can never be 1 with the token back on the initial place.
        impossible = (encoding.signal("r") & encoding.signal("a")
                      & encoding.place("<a-,r+>"))
        with pytest.raises(WitnessError):
            find_firing_sequence(image, impossible)

    def test_witness_to_deadlock(self):
        stg = fake_conflict_d1()
        encoding, image, reached = setup(stg)
        from repro.core.deadlock import deadlock_states

        dead = deadlock_states(encoding, reached)
        sequence = find_firing_sequence(image, dead)
        assert len(sequence) == 3  # one interleaving of a/b plus c+
        assert sequence[-1] == "c+"

    def test_explain_state(self):
        stg = handshake()
        encoding, image, _ = setup(stg)
        info = explain_state(encoding, encoding.initial_state())
        assert info["code"] == {"r": False, "a": False}
        with pytest.raises(WitnessError):
            explain_state(encoding, encoding.manager.false)


class TestLivenessPhase:
    def test_liveness_verdicts_added(self):
        report = verify(mutex_element(),
                        EngineConfig(arbitration_places=("p_me",)),
                        checks=ALL)
        names = {verdict.name for verdict in report.verdicts}
        assert "deadlock freedom" in names
        assert "reversibility" in names
        assert "live" in report.timings
        assert all(verdict.holds for verdict in report.verdicts
                   if verdict.name in ("deadlock freedom", "reversibility"))

    def test_liveness_failure_reported(self):
        report = verify(fake_conflict_d1(), checks=ALL)
        by_name = {verdict.name: verdict for verdict in report.verdicts}
        assert not by_name["deadlock freedom"].holds
        assert not by_name["reversibility"].holds

    def test_liveness_not_included_by_default(self):
        report = verify(csc_violation_example())
        names = {verdict.name for verdict in report.verdicts}
        assert "deadlock freedom" not in names
        assert "live" not in report.timings
