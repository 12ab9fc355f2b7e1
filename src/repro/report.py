"""Implementability reports shared by the explicit and symbolic engines.

Both engines of :func:`repro.api.verify` fill the same
:class:`ImplementabilityReport`, so results can be compared field by field
(the test-suite does exactly that) and printed uniformly by the CLI, the
examples and the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Dict, List, Mapping, Optional


class ImplementabilityClass(Enum):
    """The hierarchy of Definition 2.6 (plus the failure class).

    :attr:`PARTIAL` is not a rung of the hierarchy: it is the explicit
    verdict of a ``checks=`` subset run that left the class undecided
    (basics unchecked, CSC unchecked, ...), so summaries and ``--json``
    reports say *why* there is no class instead of silently omitting it.
    Corpus expected metadata never records it -- a full run always
    decides a real class.
    """

    NOT_IMPLEMENTABLE = "not SI-implementable"
    SI = "SI-implementable (interface may change)"
    IO = "I/O-implementable"
    GATE = "gate-implementable"
    PARTIAL = "partial (check subset left the class undecided)"

    def __str__(self) -> str:
        return self.value


@dataclass
class PropertyVerdict:
    """One checked property: verdict plus human-readable evidence."""

    name: str
    holds: bool
    details: List[str] = field(default_factory=list)

    def __str__(self) -> str:
        status = "OK " if self.holds else "FAIL"
        text = f"[{status}] {self.name}"
        if not self.holds and self.details:
            shown = "; ".join(self.details[:3])
            more = len(self.details) - 3
            if more > 0:
                shown += f"; ... ({more} more)"
            text += f": {shown}"
        return text

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "holds": self.holds,
                "details": list(self.details)}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "PropertyVerdict":
        return cls(name=str(data["name"]), holds=bool(data["holds"]),
                   details=list(data.get("details") or []))


@dataclass
class ImplementabilityReport:
    """Complete outcome of an implementability check of one STG."""

    stg_name: str
    method: str  # "explicit" or "symbolic"
    # Size of the problem.
    num_places: int = 0
    num_transitions: int = 0
    num_signals: int = 0
    num_states: int = 0
    # Property verdicts (None = not checked / not applicable).
    bounded: Optional[bool] = None
    safe: Optional[bool] = None
    consistent: Optional[bool] = None
    output_persistent: Optional[bool] = None
    csc: Optional[bool] = None
    usc: Optional[bool] = None
    deterministic: Optional[bool] = None
    commutative: Optional[bool] = None
    complementary_free: Optional[bool] = None
    fake_free: Optional[bool] = None
    # Liveness extras (only filled when liveness checking is requested).
    deadlock_free: Optional[bool] = None
    reversible: Optional[bool] = None
    # Evidence.
    verdicts: List[PropertyVerdict] = field(default_factory=list)
    # Performance data (phase name -> seconds), mirroring Table 1 columns.
    timings: Dict[str, float] = field(default_factory=dict)
    # Symbolic-only statistics.
    bdd_peak_nodes: Optional[int] = None
    bdd_final_nodes: Optional[int] = None
    bdd_variables: Optional[int] = None
    # Delta warm-start provenance (:mod:`repro.delta`): how the run
    # reused a base entry -- reuse tier, classification reasons, edit
    # summary.  Pure execution provenance like ``timings``: stamped by
    # the api facade after the engine ran, never consulted by any check,
    # and stripped from the runner's stable views.
    delta: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------
    # Derived results
    # ------------------------------------------------------------------
    @property
    def csc_reducible(self) -> Optional[bool]:
        """CSC-reducibility: deterministic, commutative and free from
        mutually complementary input sequences (Section 3.4)."""
        parts = (self.deterministic, self.commutative, self.complementary_free)
        if any(part is None for part in parts):
            return None
        return all(parts)

    @property
    def classification(self) -> ImplementabilityClass:
        """Implementability class per Definition 2.6 / Propositions 3.1-3.2.

        :attr:`ImplementabilityClass.PARTIAL` when a partial ``checks=``
        run left the class undecided: the basics (boundedness,
        consistency, persistency) unchecked, CSC unchecked, or -- with
        CSC failing -- the reducibility check not run at all.  A
        reducibility check that *ran* but left only commutativity
        undecided still classifies as SI (the undecided verdict blocks
        the I/O upgrade, not the classification).  An unsafe net is not
        implementable: the paper's encoding is of safe nets, and the
        symbolic engine's other verdicts describe a truncated state
        space.
        """
        basics = (self.bounded, self.consistent, self.output_persistent)
        if any(part is None for part in basics):
            return ImplementabilityClass.PARTIAL
        basic = all(bool(part) for part in basics) and self.safe is not False
        if not basic:
            return ImplementabilityClass.NOT_IMPLEMENTABLE
        if self.csc is None:
            return ImplementabilityClass.PARTIAL
        if self.csc:
            return ImplementabilityClass.GATE
        reducibility_parts = (self.deterministic, self.commutative,
                              self.complementary_free)
        if all(part is None for part in reducibility_parts):
            # the reducibility check never ran
            return ImplementabilityClass.PARTIAL
        if self.csc_reducible:
            return ImplementabilityClass.IO
        return ImplementabilityClass.SI

    @property
    def io_implementable(self) -> bool:
        """Proposition 3.2: bounded, consistent, persistent, CSC-reducible."""
        return self.classification in (ImplementabilityClass.IO,
                                       ImplementabilityClass.GATE)

    @property
    def gate_implementable(self) -> bool:
        """CSC holds on top of the basic conditions."""
        return self.classification is ImplementabilityClass.GATE

    @property
    def total_time(self) -> float:
        return sum(self.timings.values())

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def add_verdict(self, name: str, holds: bool,
                    details: Optional[List[str]] = None) -> None:
        self.verdicts.append(PropertyVerdict(name, holds, details or []))

    def summary(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"STG {self.stg_name!r} ({self.method} check)",
            (f"  size: {self.num_places} places, {self.num_transitions} "
             f"transitions, {self.num_signals} signals, "
             f"{self.num_states} states"),
        ]
        for verdict in self.verdicts:
            lines.append(f"  {verdict}")
        lines.append(f"  classification: {self.classification}")
        if self.bdd_peak_nodes is not None:
            lines.append(f"  BDD nodes: peak {self.bdd_peak_nodes}, "
                         f"final {self.bdd_final_nodes} "
                         f"({self.bdd_variables} variables)")
        if self.timings:
            rendered = ", ".join(f"{name} {value:.3f}s"
                                 for name, value in self.timings.items())
            lines.append(f"  time: {rendered} (total {self.total_time:.3f}s)")
        if self.delta:
            lines.append(f"  delta: tier {self.delta.get('tier')} "
                         f"(closed={self.delta.get('closed')}) from base "
                         f"{str(self.delta.get('base'))[:12]}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # JSON schema shared by the sweep runner's RunStore and --json report
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Lossless, JSON-serialisable form of every dataclass field.

        The derived ``classification`` is additionally rendered (as its
        string form) so ``--json`` reports and cached records carry the
        verdict explicitly; :meth:`from_dict` ignores it and recomputes
        the property from the restored fields, so
        ``from_dict(to_dict(report)) == report`` holds exactly.  This is
        the schema the :mod:`repro.runner` workers ship across process
        boundaries and the :class:`~repro.runner.store.RunStore` persists.
        """
        data: Dict[str, object] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name == "verdicts":
                value = [verdict.to_dict() for verdict in value]
            elif spec.name == "timings":
                value = dict(value)
            data[spec.name] = value
        data["classification"] = str(self.classification)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ImplementabilityReport":
        """Rebuild a report from :meth:`to_dict` output (unknown keys ignored)."""
        known = {spec.name for spec in fields(cls)}
        kwargs = {key: value for key, value in data.items() if key in known}
        kwargs["verdicts"] = [PropertyVerdict.from_dict(verdict)
                              for verdict in kwargs.get("verdicts") or []]
        kwargs["timings"] = dict(kwargs.get("timings") or {})
        return cls(**kwargs)
