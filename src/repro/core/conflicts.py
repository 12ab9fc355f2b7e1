"""One pass over the conflict pairs: persistency (Figure 6) and fake
conflicts (Section 5.4).

In a safe net only transitions sharing an input place can disable each
other, so Figure 6's transition and signal persistency checks and
Section 5.4's fake-conflict classification ask each ordered pair
``(fired, disabled)`` of such transitions the same question: fired from
the reachable states that enable both, where does ``fired`` lead?

    after = delta(R . E(disabled) . E(fired), fired)

:func:`check_conflict_pairs` fires each such pair once and reads every
answer off ``after``:

* ``after - E(disabled)``: ``fired`` disables the transition
  ``disabled`` (transition persistency, Figure 6a);
* ``after - E(a)``, with ``a`` the signal of ``disabled``: ``fired``
  disables the signal (signal persistency, Figure 6b).  Definition 3.2
  filters these: disabling an input by another input is environment
  choice, and a pair whose shared input places include a declared
  *arbitration place* is tolerated (footnote to Definition 3.2), the
  rule of the explicit engine;
* the same set, unfiltered, decides one direction of the pair's
  fake-conflict classification (Definition 3.6), reported in the
  explicit engine's :class:`~repro.sg.fake_conflicts.FakeConflictResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.bdd import Function
from repro.core.image import SymbolicImage
from repro.petri.structure import conflict_places
from repro.sg.fake_conflicts import ConflictClassification, FakeConflictResult


@dataclass
class SymbolicPersistencyViolation:
    """One disabling discovered by the symbolic check."""

    fired: str
    disabled: str
    disabled_signal: str
    signal_level: bool
    witness: Optional[dict] = None

    def __str__(self) -> str:
        target = (f"signal {self.disabled_signal}" if self.signal_level
                  else f"transition {self.disabled}")
        return f"{target} disabled by firing {self.fired}"


@dataclass
class SymbolicPersistencyResult:
    """Outcome of a symbolic persistency check."""

    persistent: bool
    violations: List[SymbolicPersistencyViolation] = field(default_factory=list)
    arbitration_skips: int = 0

    def violating_pairs(self) -> List[Tuple[str, str]]:
        return sorted({(v.fired, v.disabled) for v in self.violations})


@dataclass
class ConflictPairsResult:
    """Everything one pass over the conflict pairs decides."""

    transition_persistency: SymbolicPersistencyResult
    signal_persistency: SymbolicPersistencyResult
    conflicts: FakeConflictResult


def check_conflict_pairs(image: SymbolicImage, reached: Function,
                         arbitration_places: Iterable[str] = ()
                         ) -> ConflictPairsResult:
    """Transition and signal persistency and the fake-conflict
    classification, firing each co-enabled ordered pair once.

    The pairs are visited per conflict place (net order), then by
    ``disabled``, then by ``fired`` (both sorted); a pair sharing two
    places is visited at the first.  Violations keep that order, and a
    signal disabled by one transition is reported once.
    """
    encoding = image.encoding
    stg = encoding.stg
    net = stg.net
    arbitration = set(arbitration_places)
    transition_level: List[SymbolicPersistencyViolation] = []
    signal_level: List[SymbolicPersistencyViolation] = []
    skips = 0
    reported: Set[Tuple[str, str]] = set()
    # Per visited pair: does ``fired`` disable the signal of
    # ``disabled``?  None when the two are never enabled together.
    kills: Dict[Tuple[str, str], Optional[bool]] = {}

    for place in conflict_places(net):
        transitions = sorted(net.postset_of_place(place))
        for disabled in transitions:
            signal = stg.signal_of(disabled)
            enabled = reached & encoding.enabled(disabled)
            for fired in transitions:
                if fired == disabled or (fired, disabled) in kills:
                    continue
                both = enabled & encoding.enabled(fired)
                if both.is_false():
                    kills[(fired, disabled)] = None
                    continue
                after = image.fire(both, fired)
                stuck = after - encoding.enabled(disabled)
                if not stuck.is_false():
                    transition_level.append(SymbolicPersistencyViolation(
                        fired, disabled, signal, False,
                        encoding.witness(stuck)))
                lost = after - encoding.signal_enabled(signal)
                kills[(fired, disabled)] = not lost.is_false()
                fired_signal = stg.signal_of(fired)
                if (lost.is_false() or fired_signal == signal
                        or (stg.is_input(signal)
                            and stg.is_input(fired_signal))
                        or (fired, signal) in reported):
                    continue
                if (arbitration & net.preset_of_transition(fired)
                        & net.preset_of_transition(disabled)):
                    skips += 1
                    continue
                reported.add((fired, signal))
                signal_level.append(SymbolicPersistencyViolation(
                    fired, disabled, signal, True,
                    encoding.witness(lost)))

    conflicts = FakeConflictResult([
        ConflictClassification(first, second, bool(kills[(first, second)]),
                               bool(kills[(second, first)]),
                               kills[(first, second)] is not None)
        for first, second in sorted(pair for pair in kills
                                    if pair[0] < pair[1])])
    return ConflictPairsResult(
        SymbolicPersistencyResult(not transition_level, transition_level),
        SymbolicPersistencyResult(not signal_level, signal_level, skips),
        conflicts)
