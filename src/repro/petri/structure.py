"""Structural (marking-independent) properties of Petri nets.

Several facts used by the paper depend only on the net structure:
*conflict places* -- places with more than one output transition -- are
the only possible sources of transition non-persistency (Section 5.2),
and source transitions and isolated places are flagged by the structural
validation of an STG.
"""

from __future__ import annotations

from typing import List

from repro.petri.net import PetriNet


def conflict_places(net: PetriNet) -> List[str]:
    """Places with more than one output transition (``|p•| > 1``)."""
    return [p for p in net.places if len(net.postset_of_place(p)) > 1]


def source_transitions(net: PetriNet) -> List[str]:
    """Transitions with an empty preset (always enabled -- usually a bug)."""
    return [t for t in net.transitions if not net.preset_of_transition(t)]


def isolated_places(net: PetriNet) -> List[str]:
    """Places not connected to any transition."""
    return [p for p in net.places
            if not net.preset_of_place(p) and not net.postset_of_place(p)]
