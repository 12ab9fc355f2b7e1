"""Explicit fake-conflict analysis (Definition 3.6, Section 3.5).

A *direct conflict* between transitions ``ti`` and ``tj`` (they share an
input place and firing one disables the other) is **fake** with respect to
the direction ``ti -> tj`` when firing ``ti`` never disables the *signal*
of ``tj`` (another transition of the same signal is enabled afterwards).

Classification of a conflicting pair:

* **symmetric fake** -- both directions are fake,
* **asymmetric fake** -- exactly one direction is fake,
* **real** -- neither direction is fake (a genuine choice or disabling).

An STG is *fake-free* when it has no symmetric fake conflicts and no
asymmetric fake conflicts involving a non-input signal.  Fake-freedom
substitutes the expensive commutativity check (Section 5.4): a fake-free
STG is commutative, and it has a persistent SG iff all non-input
transitions are persistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.sg.state import StateGraph
from repro.stg.stg import STG
from repro.stg.validate import direct_conflict_pairs


@dataclass
class ConflictClassification:
    """Classification of one unordered conflicting transition pair."""

    first: str
    second: str
    first_disables_second_signal: bool
    second_disables_first_signal: bool
    observed: bool  # the two transitions are enabled together somewhere

    @property
    def is_fake_symmetric(self) -> bool:
        return (self.observed and not self.first_disables_second_signal
                and not self.second_disables_first_signal)

    @property
    def is_fake_asymmetric(self) -> bool:
        return (self.observed
                and (self.first_disables_second_signal
                     != self.second_disables_first_signal))

    def __str__(self) -> str:
        if not self.observed:
            return f"({self.first}, {self.second}): never enabled together"
        if self.is_fake_symmetric:
            kind = "symmetric fake"
        elif self.is_fake_asymmetric:
            kind = "asymmetric fake"
        else:
            kind = "real"
        return f"({self.first}, {self.second}): {kind} conflict"


@dataclass
class FakeConflictResult:
    """Outcome of the explicit fake-conflict analysis."""

    classifications: List[ConflictClassification] = field(default_factory=list)

    @property
    def symmetric_fake(self) -> List[ConflictClassification]:
        return [c for c in self.classifications if c.is_fake_symmetric]

    @property
    def asymmetric_fake(self) -> List[ConflictClassification]:
        return [c for c in self.classifications if c.is_fake_asymmetric]

    def fake_free(self, stg: STG) -> bool:
        """Fake-freedom as defined in Section 3.5."""
        if self.symmetric_fake:
            return False
        for classification in self.asymmetric_fake:
            signals = {stg.signal_of(classification.first),
                       stg.signal_of(classification.second)}
            if any(not stg.is_input(signal) for signal in signals):
                return False
        return True


def classify_conflicts(graph: StateGraph, stg: STG) -> FakeConflictResult:
    """Classify every structural conflict pair of the STG.

    The pairs are observed at the distinct markings of ``graph``.  A
    complete state graph holds every reachable marking; on one truncated
    by its state budget the classification covers the explored markings.
    """
    markings = dict.fromkeys(state.marking for state in graph.states)
    # Collect unordered structural pairs.
    ordered = direct_conflict_pairs(stg)
    unordered = sorted({tuple(sorted(pair)) for pair in ordered})
    result = FakeConflictResult()
    for first, second in unordered:
        observed = False
        first_kills_second = False
        second_kills_first = False
        signal_first = stg.signal_of(first)
        signal_second = stg.signal_of(second)
        for marking in markings:
            if not (stg.net.is_enabled(first, marking)
                    and stg.net.is_enabled(second, marking)):
                continue
            observed = True
            after_first = stg.net.fire(first, marking)
            if signal_second not in {stg.signal_of(t)
                                     for t in stg.net.enabled_transitions(after_first)}:
                first_kills_second = True
            after_second = stg.net.fire(second, marking)
            if signal_first not in {stg.signal_of(t)
                                    for t in stg.net.enabled_transitions(after_second)}:
                second_kills_first = True
        result.classifications.append(ConflictClassification(
            first, second, first_kills_second, second_kills_first, observed))
    return result
