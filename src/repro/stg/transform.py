"""Behaviour-preserving transformations of STGs.

The paper distinguishes between transformations that keep the interface
(insertion of internal signals to repair *reducible* CSC violations,
Section 3.4) and transformations that change it (required for irreducible
violations).  :func:`insert_signal` is the interface-preserving one: it
splices a new signal's rising and falling transitions after two existing
transitions.  The observable (projected) behaviour is preserved, which is
exactly the mechanism used to resolve reducible CSC conflicts by hand or
by an encoding tool.  It returns a new :class:`~repro.stg.stg.STG`; the
input is never mutated.
"""

from __future__ import annotations

from repro.stg.signals import STGError, SignalKind
from repro.stg.stg import STG


def insert_signal(stg: STG, signal: str, rise_after: str, fall_after: str,
                  kind: SignalKind = SignalKind.INTERNAL,
                  initial_value: bool = False) -> STG:
    """Insert a new signal sequenced after two existing transitions.

    The rising transition ``signal+`` is spliced directly after the
    transition ``rise_after``: every place previously produced by
    ``rise_after`` is now produced by ``signal+`` instead, and a fresh
    place connects the two.  The falling transition is spliced after
    ``fall_after`` in the same way.  Projected onto the original signals
    the behaviour is unchanged (the new events are merely interleaved), so
    the transformation is the one used to repair reducible CSC violations.

    Parameters
    ----------
    stg:
        The specification to transform (not modified).
    signal:
        Name of the new signal (must not exist yet).
    rise_after / fall_after:
        Names of existing transitions after which ``signal+`` /
        ``signal-`` are inserted.  They must be different transitions.
    kind:
        Kind of the new signal (internal by default -- interface preserved).
    initial_value:
        Initial value of the new signal.
    """
    if stg.has_signal(signal):
        raise STGError(f"signal {signal!r} already exists")
    if rise_after == fall_after:
        raise STGError("rise_after and fall_after must be different transitions")
    for transition in (rise_after, fall_after):
        if transition not in stg.transitions:
            raise STGError(f"unknown transition {transition!r}")

    clone = stg.copy()
    clone.add_signal(signal, kind, initial_value=initial_value)
    _splice_after(clone, rise_after, f"{signal}+")
    _splice_after(clone, fall_after, f"{signal}-")
    return clone


def _splice_after(stg: STG, anchor: str, new_label: str) -> None:
    """Splice the transition ``new_label`` directly after ``anchor``."""
    new_transition = stg.add_transition(new_label)
    successors = sorted(stg.net.postset_of_transition(anchor))
    for place in successors:
        stg.net.remove_arc(anchor, place)
        stg.net.add_arc(new_transition, place)
    bridge = STG.implicit_place_name(anchor, new_transition)
    stg.add_place(bridge)
    stg.net.add_arc(anchor, bridge)
    stg.net.add_arc(bridge, new_transition)
