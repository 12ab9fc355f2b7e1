"""Behavioural analysis of Petri nets by explicit enumeration.

These checks mirror the definitions of Sections 2 and 3 of the paper at the
uninterpreted Petri-net level: boundedness, safeness and transition
persistency (Definition 3.3(1): direct conflicts).  The transition
persistency check shares no code with the symbolic one, which makes it
that check's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.petri.marking import Marking
from repro.petri.net import PetriNet
from repro.petri.reachability import BoundViolation, build_reachability_graph


@dataclass
class BoundednessResult:
    """Outcome of a boundedness check.

    Attributes
    ----------
    bounded:
        True when the exploration completed without exceeding the bound /
        state budget.
    bound:
        The smallest ``k`` such that the net is k-bounded (only meaningful
        when ``bounded`` is True).
    safe:
        Convenience flag: ``bound <= 1``.
    num_markings:
        Number of reachable markings visited.
    overmarked:
        The places some reachable marking gives more than one token,
        sorted (empty when safe).
    witness:
        The first such marking in breadth-first order (``None`` when
        safe).
    """

    bounded: bool
    bound: int = 0
    safe: bool = False
    num_markings: int = 0
    overmarked: List[str] = field(default_factory=list)
    witness: Optional[Marking] = None


def check_boundedness(net: PetriNet, max_markings: int = 1_000_000
                      ) -> BoundednessResult:
    """Check boundedness by explicit exploration.

    Exploration is cut off after ``max_markings`` markings; hitting the cut
    is reported as *not bounded* (for the nets of this project the cap is
    far above any bounded instance, and truly unbounded nets would not
    terminate otherwise).
    """
    try:
        graph = build_reachability_graph(net, max_markings=max_markings)
    except BoundViolation:
        return BoundednessResult(bounded=False)
    bound = graph.max_tokens()
    overfull = [marking for marking in graph.markings
                if marking.max_tokens() > 1]
    return BoundednessResult(
        bounded=True, bound=bound, safe=bound <= 1,
        num_markings=graph.num_markings,
        overmarked=sorted({place for marking in overfull
                           for place in marking if marking[place] > 1}),
        witness=overfull[0] if overfull else None)


@dataclass
class PersistencyViolation:
    """One direct conflict observed in the reachability graph.

    ``disabled`` was enabled at ``marking`` and is no longer enabled after
    firing ``fired``.
    """

    marking: Marking
    fired: str
    disabled: str

    def __str__(self) -> str:
        return f"{self.disabled} disabled by {self.fired}"


@dataclass
class TransitionPersistencyResult:
    """Outcome of the explicit transition-persistency check."""

    persistent: bool
    violations: List[PersistencyViolation] = field(default_factory=list)

    def conflicting_pairs(self) -> List[Tuple[str, str]]:
        """Distinct ``(fired, disabled)`` transition pairs."""
        return sorted({(v.fired, v.disabled) for v in self.violations})


def check_transition_persistency(net: PetriNet,
                                 first_violation_only: bool = False
                                 ) -> TransitionPersistencyResult:
    """Explicit check of Definition 3.3(1).

    A transition ``ti`` is non-persistent if it is enabled at a reachable
    marking ``m`` and becomes disabled after firing another transition
    ``tj`` that is also enabled at ``m``.
    """
    graph = build_reachability_graph(net)
    violations: List[PersistencyViolation] = []
    for marking in graph.markings:
        enabled = net.enabled_transitions(marking)
        if len(enabled) < 2:
            continue
        for fired in enabled:
            successor = net.fire(fired, marking)
            for other in enabled:
                if other == fired:
                    continue
                if not net.is_enabled(other, successor):
                    violations.append(
                        PersistencyViolation(marking, fired, other))
                    if first_violation_only:
                        return TransitionPersistencyResult(False, violations)
    return TransitionPersistencyResult(not violations, violations)
