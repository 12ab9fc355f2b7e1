"""Tests for the STG signal-insertion transformation."""

import pytest

from repro.api import EngineConfig, verify
from repro.sg import build_state_graph
from repro.sg.traces import bounded_trace_equivalent
from repro.stg import STGError, SignalKind
from repro.stg.generators import (
    csc_violation_example,
    handshake,
    vme_read_cycle,
    vme_read_cycle_resolved,
)
from repro.stg.transform import insert_signal

EXPLICIT = EngineConfig(engine="explicit")


class TestInsertSignal:
    def test_inserted_signal_becomes_internal(self):
        stg = insert_signal(handshake(), "x", rise_after="r+", fall_after="r-")
        assert stg.internals == ["x"]
        assert "x+" in stg.transitions and "x-" in stg.transitions

    def test_original_is_not_modified(self):
        original = handshake()
        insert_signal(original, "x", rise_after="r+", fall_after="r-")
        assert not original.has_signal("x")

    def test_insertion_preserves_observable_behaviour(self):
        original = handshake()
        extended = insert_signal(original, "x", rise_after="r+",
                                 fall_after="r-")
        g1 = build_state_graph(original).graph
        g2 = build_state_graph(extended).graph
        assert bounded_trace_equivalent(g1, original, g2, extended,
                                        ["r", "a"], depth=8)

    def test_insertion_sequences_new_signal(self):
        extended = insert_signal(handshake(), "x", rise_after="r+",
                                 fall_after="a+")
        report = verify(extended, EXPLICIT)
        assert report.consistent
        assert report.output_persistent

    def test_vme_csc_resolution(self):
        # The resolution shipped as a generator: CSC violated before the
        # insertion, satisfied afterwards, interface unchanged.
        before = verify(vme_read_cycle(), EXPLICIT)
        after = verify(vme_read_cycle_resolved(), EXPLICIT)
        assert before.csc is False and before.csc_reducible is True
        assert after.csc is True
        assert set(vme_read_cycle_resolved().inputs) == set(vme_read_cycle().inputs)
        assert set(vme_read_cycle_resolved().outputs) == set(vme_read_cycle().outputs)

    def test_csc_violation_example_resolution_by_insertion(self):
        stg = csc_violation_example()
        resolved = insert_signal(stg, "x", rise_after="b+", fall_after="c+")
        report = verify(resolved, EXPLICIT)
        assert report.csc is True

    def test_duplicate_signal_rejected(self):
        with pytest.raises(STGError):
            insert_signal(handshake(), "a", rise_after="r+", fall_after="r-")

    def test_same_anchor_rejected(self):
        with pytest.raises(STGError):
            insert_signal(handshake(), "x", rise_after="r+", fall_after="r+")

    def test_unknown_anchor_rejected(self):
        with pytest.raises(STGError):
            insert_signal(handshake(), "x", rise_after="r+", fall_after="zz-")

    def test_insert_as_output(self):
        stg = insert_signal(handshake(), "probe", rise_after="r+",
                            fall_after="r-", kind=SignalKind.OUTPUT)
        assert "probe" in stg.outputs


class TestInsertSignalProperties:
    """Property-based check: insertion never changes observable behaviour."""

    from hypothesis import given, settings, strategies as st

    @settings(max_examples=20, deadline=None)
    @given(anchors=st.tuples(st.sampled_from(["r+", "a+", "r-", "a-"]),
                             st.sampled_from(["r+", "a+", "r-", "a-"])),
           kind=st.sampled_from([SignalKind.INTERNAL, SignalKind.OUTPUT]))
    def test_random_insertions_preserve_projection(self, anchors, kind):
        from hypothesis import assume

        rise_after, fall_after = anchors
        assume(rise_after != fall_after)
        original = handshake()
        extended = insert_signal(original, "x", rise_after=rise_after,
                                 fall_after=fall_after, kind=kind)
        g1 = build_state_graph(original).graph
        g2 = build_state_graph(extended).graph
        assert bounded_trace_equivalent(g1, original, g2, extended,
                                        ["r", "a"], depth=8)
        # One of the two initial values of the inserted signal must give a
        # consistent extension (x+ and x- each fire exactly once per cycle,
        # so they alternate; which phase comes first decides the value).
        if not verify(extended, EXPLICIT).consistent:
            flipped = insert_signal(original, "x", rise_after=rise_after,
                                    fall_after=fall_after, kind=kind,
                                    initial_value=True)
            assert verify(flipped, EXPLICIT).consistent
