"""Excitation and quiescent regions of a state graph (explicit).

For a signal ``a`` (Section 5.3):

* ``ER(a+)`` -- states in which some transition ``a+`` is enabled,
* ``ER(a-)`` -- states in which some transition ``a-`` is enabled,
* ``QR(a+)`` -- states with ``a = 1`` and no ``a-`` enabled,
* ``QR(a-)`` -- states with ``a = 0`` and no ``a+`` enabled.

The union of the four regions covers the whole state graph for a
consistent specification, and the CSC condition compares the *binary
codes* occurring in opposite excitation / quiescent regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set

from repro.sg.state import State, StateGraph
from repro.stg.stg import STG


@dataclass
class SignalRegions:
    """The four regions of one signal, as sets of states and of codes."""

    signal: str
    er_plus: List[State]
    er_minus: List[State]
    qr_plus: List[State]
    qr_minus: List[State]

    def codes(self, which: str, signals: List[str]) -> Set[str]:
        """Binary-code strings of one region (``"er+"``, ``"qr-"``, ...)."""
        region = {
            "er+": self.er_plus,
            "er-": self.er_minus,
            "qr+": self.qr_plus,
            "qr-": self.qr_minus,
        }[which]
        return {state.code_string(signals) for state in region}


def compute_regions(graph: StateGraph, stg: STG, signal: str) -> SignalRegions:
    """Compute the excitation and quiescent regions of ``signal``."""
    er_plus: List[State] = []
    er_minus: List[State] = []
    qr_plus: List[State] = []
    qr_minus: List[State] = []
    rising = set(stg.transitions_of(signal, "+"))
    falling = set(stg.transitions_of(signal, "-"))
    for state in graph.states:
        enabled = set(graph.enabled_transitions(state))
        plus_enabled = bool(enabled & rising)
        minus_enabled = bool(enabled & falling)
        if plus_enabled:
            er_plus.append(state)
        if minus_enabled:
            er_minus.append(state)
        value = state.value_of(signal)
        if value and not minus_enabled:
            qr_plus.append(state)
        if not value and not plus_enabled:
            qr_minus.append(state)
    return SignalRegions(signal, er_plus, er_minus, qr_plus, qr_minus)
