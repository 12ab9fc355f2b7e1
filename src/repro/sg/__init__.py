"""Explicit (full) State Graphs and explicit implementability checks.

This package is the *enumeration baseline*: it builds the full state graph
(Section 3 of the paper, after [11]) whose vertices are pairs
``(marking, binary code)`` and checks every implementability property by
walking the graph explicitly.  The symbolic engine in :mod:`repro.core`
computes exactly the same verdicts; the test suite cross-validates the two
on every specification small enough to enumerate, and the benchmarks use
this package as the state-explosion-prone baseline.

Contents:

* :mod:`repro.sg.state` -- states and the :class:`~repro.sg.state.StateGraph`,
* :mod:`repro.sg.builder` -- full-state-graph construction and initial
  value inference,
* :mod:`repro.sg.consistency`, :mod:`repro.sg.persistency`,
  :mod:`repro.sg.regions`, :mod:`repro.sg.csc`,
  :mod:`repro.sg.reducibility`, :mod:`repro.sg.fake_conflicts` -- the
  property checks,
* :mod:`repro.sg.traces` -- projections and bounded trace equivalence,
* :mod:`repro.sg.checker` -- the
  :class:`~repro.sg.checker.ExplicitVerification` context behind the
  ``explicit`` engine of :func:`repro.api.verify`.
"""

from repro.sg.state import State, StateGraph
from repro.sg.builder import build_state_graph, infer_initial_values

__all__ = [
    "State",
    "StateGraph",
    "build_state_graph",
    "infer_initial_values",
]
