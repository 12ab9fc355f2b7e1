"""Structural validation of STGs and conflict-candidate extraction.

These checks are purely structural (no state-space exploration) and are
used both as pre-flight validation before the expensive symbolic phases
and as the source of the candidate pairs the persistency / fake-conflict
checks iterate over (Sections 5.2 and 5.4 only look at transitions sharing
an input place).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set, Tuple

from repro.petri.structure import (
    conflict_places,
    isolated_places,
    source_transitions,
)
from repro.stg.signals import STGError
from repro.stg.stg import STG


@dataclass
class ValidationIssue:
    """A single structural problem found in an STG."""

    severity: str  # "error" or "warning"
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.message}"


@dataclass
class ValidationReport:
    """Outcome of :func:`validate_structure`."""

    issues: List[ValidationIssue] = field(default_factory=list)

    @property
    def errors(self) -> List[ValidationIssue]:
        return [i for i in self.issues if i.severity == "error"]

    @property
    def valid(self) -> bool:
        """True when no error-severity issue was found."""
        return not self.errors

    def __str__(self) -> str:
        if not self.issues:
            return "structure OK"
        return "\n".join(str(issue) for issue in self.issues)


def validate_structure(stg: STG) -> ValidationReport:
    """Run all structural checks and collect issues."""
    report = ValidationReport()

    def error(message: str) -> None:
        report.issues.append(ValidationIssue("error", message))

    def warning(message: str) -> None:
        report.issues.append(ValidationIssue("warning", message))

    if not stg.signals:
        error("the STG declares no signals")
    if not stg.transitions:
        error("the STG has no transitions")

    # Every transition must be labelled with a declared signal (guaranteed
    # by the STG API but not by hand-built nets or future parsers).
    for transition in stg.net.transitions:
        try:
            label = stg.label_of(transition)
        except STGError:
            error(f"transition {transition!r} has no signal label")
            continue
        if not stg.has_signal(label.signal):
            error(f"transition {transition!r} uses undeclared signal "
                  f"{label.signal!r}")

    # Signals with no transitions can never change: likely a spec bug.
    for signal in stg.signals:
        if not stg.transitions_of_signal(signal):
            warning(f"signal {signal!r} has no transitions")
        else:
            rising = stg.transitions_of(signal, "+")
            falling = stg.transitions_of(signal, "-")
            if bool(rising) != bool(falling):
                warning(f"signal {signal!r} has only "
                        f"{'rising' if rising else 'falling'} transitions; "
                        f"this is consistent only for acyclic (one-shot) "
                        f"specifications")

    # Structural net sanity.
    for transition in source_transitions(stg.net):
        error(f"transition {transition!r} has no input places "
              f"(it would be enabled forever)")
    for place in isolated_places(stg.net):
        warning(f"place {place!r} is not connected to any transition")

    # Initial marking must not be empty.
    if stg.initial_marking().total_tokens() == 0 and stg.transitions:
        error("the initial marking is empty: no transition can ever fire")

    return report


def direct_conflict_pairs(stg: STG) -> List[Tuple[str, str]]:
    """Ordered pairs of labelled transitions sharing an input place.

    These are the candidates for non-persistency (Definition 3.3) and for
    fake conflicts (Definition 3.6).
    """
    pairs: Set[Tuple[str, str]] = set()
    for place in conflict_places(stg.net):
        successors = sorted(stg.net.postset_of_place(place))
        for first in successors:
            for second in successors:
                if first != second:
                    pairs.add((first, second))
    return sorted(pairs)
