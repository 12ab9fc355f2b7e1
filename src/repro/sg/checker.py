"""Explicit (enumerative) implementability checking.

Mirrors the symbolic engine (:mod:`repro.core`) but computes every
property by enumerating the full state graph.  It is the baseline the
paper improves upon and the oracle used to validate the symbolic engine
on small specifications.

:class:`ExplicitVerification` is the engine context: it owns the lazily
built state graph (built once, shared by every check) and implements the
property checks of the :mod:`repro.api.checks` registry as
``_check_<name>`` appliers.  Run it through the facade::

    from repro.api import EngineConfig, verify

    report = verify(stg, EngineConfig(engine="explicit"))
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.petri.analysis import check_boundedness
from repro.report import ImplementabilityReport
from repro.sg.builder import build_state_graph
from repro.sg.consistency import check_consistency
from repro.sg.csc import check_csc
from repro.sg.fake_conflicts import classify_conflicts
from repro.sg.persistency import check_signal_persistency
from repro.sg.reducibility import check_reducibility
from repro.stg.stg import STG


class ExplicitVerification:
    """One STG, one state-graph enumeration, every property check.

    The explicit counterpart of
    :class:`repro.core.pipeline.VerificationPipeline`: the expensive
    intermediate -- the full state graph -- is built lazily on first
    access and shared by every check that
    :func:`repro.api.checks.run_checks` applies.

    Parameters
    ----------
    stg:
        The specification to check.
    initial_values:
        Optional completion/override of the initial signal values.
    arbitration_places:
        Places whose output/output conflicts model arbitration and are
        tolerated by the persistency check.
    max_states:
        Enumeration budget (states); exceeding it marks the result as
        unbounded exploration failure.
    """

    #: No BDDs here: check spans carry no manager cache deltas.
    manager = None

    def __init__(self, stg: STG,
                 initial_values: Optional[Dict[str, bool]] = None,
                 arbitration_places: Optional[Iterable[str]] = None,
                 max_states: int = 1_000_000,
                 deadline: Optional[float] = None) -> None:
        self.stg = stg
        self.initial_values = initial_values
        self.arbitration_places = list(arbitration_places or ())
        self.max_states = max_states
        #: Cooperative per-entry deadline (absolute ``time.monotonic``
        #: instant) checked during enumeration; see
        #: :func:`repro.sg.builder.build_state_graph`.
        self.deadline = deadline
        self._build_result = None
        self._boundedness = None

    # ------------------------------------------------------------------
    # The shared intermediates
    # ------------------------------------------------------------------
    @property
    def build_result(self):
        """The state-graph construction outcome; enumerated exactly once."""
        if self._build_result is None:
            self._build_result = build_state_graph(
                self.stg, self.initial_values, max_states=self.max_states,
                deadline=self.deadline)
        return self._build_result

    @property
    def graph(self):
        return self.build_result.graph

    @property
    def graph_built(self) -> bool:
        """True once some check has enumerated the state graph."""
        return self._build_result is not None

    @property
    def boundedness(self):
        if self._boundedness is None:
            self._boundedness = check_boundedness(
                self.stg.net, max_markings=self.max_states)
        return self._boundedness

    # ------------------------------------------------------------------
    # Check application (the explicit side of the repro.api check registry)
    # ------------------------------------------------------------------
    def _check_consistency(self, report: ImplementabilityReport) -> None:
        result = self.build_result
        report.bounded = self.boundedness.bounded and not result.truncated
        consistency = check_consistency(self.graph, self.stg)
        report.consistent = consistency.consistent and result.consistent
        report.add_verdict(
            "bounded", bool(report.bounded),
            [] if report.bounded else ["state budget exceeded or unbounded"])
        report.add_verdict(
            "consistent state assignment", bool(report.consistent),
            [str(v) for v in consistency.violations[:5]]
            + [str(v) for v in result.consistency_violations[:5]])

    def _check_safeness(self, report: ImplementabilityReport) -> None:
        boundedness = self.boundedness
        report.safe = boundedness.safe if boundedness.bounded else False
        if report.safe:
            details = []
        elif not boundedness.bounded:
            details = ["not safe: the net is not bounded"]
        else:
            marking = ", ".join(f"{place}={boundedness.witness[place]}"
                                for place in sorted(boundedness.witness))
            details = [f"not safe: more than one token on "
                       f"{', '.join(boundedness.overmarked)}, e.g. in the "
                       f"reachable marking {{ {marking} }}"]
        report.add_verdict("safeness", bool(report.safe), details)

    def _check_persistency(self, report: ImplementabilityReport) -> None:
        persistency = check_signal_persistency(
            self.graph, self.stg, self.arbitration_places)
        report.output_persistent = persistency.persistent
        report.add_verdict("signal persistency", persistency.persistent,
                           [str(v) for v in persistency.violations[:5]])

    def _check_fake_conflicts(self, report: ImplementabilityReport) -> None:
        conflicts = classify_conflicts(self.graph, self.stg)
        report.fake_free = conflicts.fake_free(self.stg)
        report.add_verdict(
            "fake-conflict freedom", bool(report.fake_free),
            [str(c) for c in conflicts.symmetric_fake[:3]]
            + [str(c) for c in conflicts.asymmetric_fake[:3]])

    def _check_csc(self, report: ImplementabilityReport) -> None:
        csc = check_csc(self.graph, self.stg)
        report.csc = csc.csc
        report.usc = csc.usc
        report.add_verdict("complete state coding (CSC)", csc.csc,
                           [str(c) for c in csc.conflicts[:5]])
        report.add_verdict("unique state coding (USC)", csc.usc)

    def _check_reducibility(self, report: ImplementabilityReport) -> None:
        reducibility = check_reducibility(self.graph, self.stg)
        report.deterministic = reducibility.deterministic
        report.commutative = reducibility.commutative
        report.complementary_free = reducibility.complementary_free
        report.add_verdict(
            "CSC-reducibility", bool(report.csc_reducible),
            [f"mutually complementary input sequences for "
             f"{', '.join(reducibility.offending_signals)}"]
            if reducibility.offending_signals else [])

    def _check_liveness(self, report: ImplementabilityReport) -> None:
        deadlocks = self.graph.deadlocks()
        stranded = self.graph.unreturnable()
        report.deadlock_free = not deadlocks
        report.reversible = not stranded
        report.add_verdict("deadlock freedom", report.deadlock_free,
                           [f"{len(deadlocks)} deadlock state(s)"]
                           if deadlocks else [])
        report.add_verdict("reversibility", report.reversible,
                           [f"not reversible: {len(stranded)} state(s) "
                            f"cannot reach the initial state again"]
                           if stranded else [])
