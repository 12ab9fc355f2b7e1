"""Explicit signal persistency check (Definition 3.2).

A state graph is persistent when

1. no non-input signal can be disabled by another signal, and
2. no input signal can be disabled by a non-input signal.

Disabling by an *input* of another *input* is interpreted as environment
choice and is allowed.  Arbitration points (e.g. the shared place of a
mutual-exclusion element) can be declared explicitly; conflicts whose
shared place is an arbitration place are then tolerated, following the
footnote to Definition 3.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Set

from repro.sg.state import State, StateGraph
from repro.stg.stg import STG


@dataclass
class SignalPersistencyViolation:
    """Signal ``disabled_signal`` was enabled at ``state`` and is no longer
    enabled after firing ``fired_transition`` (of another signal)."""

    state: State
    fired_transition: str
    fired_signal: str
    disabled_signal: str
    disabled_is_input: bool

    def __str__(self) -> str:
        kind = "input" if self.disabled_is_input else "non-input"
        return (f"{kind} signal {self.disabled_signal} disabled by "
                f"{self.fired_signal} (firing {self.fired_transition})")


@dataclass
class PersistencyResult:
    """Outcome of the explicit persistency check."""

    persistent: bool
    violations: List[SignalPersistencyViolation] = field(default_factory=list)
    arbitration_skips: int = 0


def check_signal_persistency(graph: StateGraph, stg: STG,
                             arbitration_places: Optional[Iterable[str]] = None
                             ) -> PersistencyResult:
    """Check Definition 3.2 on an explicit state graph.

    Parameters
    ----------
    graph, stg:
        The state graph and its specification.
    arbitration_places:
        Places whose conflicts model arbitration; the disabling of
        non-input signals across such a place is tolerated (footnote to
        Definition 3.2).
    """
    arbitration: Set[str] = set(arbitration_places or ())
    violations: List[SignalPersistencyViolation] = []
    skips = 0
    for state in graph.states:
        enabled = graph.enabled_transitions(state)
        if len(enabled) < 2:
            continue
        enabled_signals = {stg.signal_of(t) for t in enabled}
        for fired in enabled:
            fired_signal = stg.signal_of(fired)
            successor_marking = stg.net.fire(fired, state.marking)
            still_enabled = {stg.signal_of(t)
                             for t in stg.net.enabled_transitions(successor_marking)}
            # Sorted: the violation list's order is part of the report
            # (and of stable JSON) -- set order would leak the hash seed.
            for signal in sorted(enabled_signals):
                if signal == fired_signal:
                    continue
                if signal in still_enabled:
                    continue
                # ``signal`` was disabled by firing ``fired``.
                disabled_is_input = stg.is_input(signal)
                fired_is_input = stg.is_input(fired_signal)
                if disabled_is_input and fired_is_input:
                    continue  # environment choice, always allowed
                if disabled_is_input and not fired_is_input:
                    pass  # case 2: input disabled by non-input -> violation
                if _is_arbitration_conflict(stg, state, fired, signal,
                                            arbitration):
                    skips += 1
                    continue
                violations.append(SignalPersistencyViolation(
                    state, fired, fired_signal, signal, disabled_is_input))
    return PersistencyResult(not violations, violations, skips)


def _is_arbitration_conflict(stg: STG, state: State, fired: str,
                             disabled_signal: str,
                             arbitration: Set[str]) -> bool:
    """True when the disabling happens across a declared arbitration place."""
    if not arbitration:
        return False
    fired_preset = stg.net.preset_of_transition(fired)
    for transition in stg.net.enabled_transitions(state.marking):
        if stg.signal_of(transition) != disabled_signal:
            continue
        shared = fired_preset & stg.net.preset_of_transition(transition)
        if shared & arbitration:
            return True
    return False
