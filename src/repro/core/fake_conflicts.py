"""Symbolic fake-conflict analysis (Section 5.4).

For every ordered pair of transitions sharing an input place, the set of
reachable states enabling both is computed; firing one of them and
intersecting with the complement of the other *signal's* enabling function
decides whether the direction is a real disabling or a fake one.  The
unordered pair is then classified as symmetric fake, asymmetric fake or
real, matching :mod:`repro.sg.fake_conflicts` state for state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.bdd import Function
from repro.core.encoding import SymbolicEncoding
from repro.core.image import SymbolicImage


@dataclass
class SymbolicConflictClassification:
    """Classification of one unordered conflict pair (symbolic version)."""

    first: str
    second: str
    first_disables_second_signal: bool
    second_disables_first_signal: bool
    observed: bool

    @property
    def is_fake_symmetric(self) -> bool:
        return (self.observed and not self.first_disables_second_signal
                and not self.second_disables_first_signal)

    @property
    def is_fake_asymmetric(self) -> bool:
        return (self.observed
                and (self.first_disables_second_signal
                     != self.second_disables_first_signal))


@dataclass
class SymbolicFakeConflictResult:
    """Outcome of the symbolic fake-conflict analysis."""

    classifications: List[SymbolicConflictClassification] = field(
        default_factory=list)

    @property
    def symmetric_fake(self) -> List[SymbolicConflictClassification]:
        return [c for c in self.classifications if c.is_fake_symmetric]

    @property
    def asymmetric_fake(self) -> List[SymbolicConflictClassification]:
        return [c for c in self.classifications if c.is_fake_asymmetric]

    def fake_free(self, stg) -> bool:
        """Fake-freedom as defined in Section 3.5."""
        if self.symmetric_fake:
            return False
        for classification in self.asymmetric_fake:
            signals = {stg.signal_of(classification.first),
                       stg.signal_of(classification.second)}
            if any(not stg.is_input(signal) for signal in signals):
                return False
        return True


def _conflict_pairs(encoding: SymbolicEncoding) -> List[Tuple[str, str]]:
    """Unordered pairs of distinct transitions sharing an input place."""
    net = encoding.stg.net
    pairs = set()
    for place in net.places:
        successors = sorted(net.postset_of_place(place))
        for i, first in enumerate(successors):
            for second in successors[i + 1:]:
                pairs.add((first, second))
    return sorted(pairs)


def classify_conflicts(encoding: SymbolicEncoding, reached: Function,
                       image: Optional[SymbolicImage] = None
                       ) -> SymbolicFakeConflictResult:
    """Classify every structural conflict pair over the reachable set."""
    image = image or SymbolicImage(encoding)
    charfun = image.charfun
    stg = encoding.stg
    result = SymbolicFakeConflictResult()
    for first, second in _conflict_pairs(encoding):
        both = reached & charfun.enabled(first) & charfun.enabled(second)
        observed = not both.is_false()
        first_kills = False
        second_kills = False
        if observed:
            signal_first = stg.signal_of(first)
            signal_second = stg.signal_of(second)
            after_first = image.fire(both, first)
            first_kills = not (
                after_first - charfun.signal_enabled(signal_second)).is_false()
            after_second = image.fire(both, second)
            second_kills = not (
                after_second - charfun.signal_enabled(signal_first)).is_false()
        result.classifications.append(SymbolicConflictClassification(
            first, second, first_kills, second_kills, observed))
    return result
