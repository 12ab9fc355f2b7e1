"""Symbolic (BDD-based) STG implementability checking -- the paper's core.

The modules of this package implement Sections 4 and 5 of the paper:

* :mod:`repro.core.encoding` -- boolean variables for places and signals,
  static variable-ordering strategies (Section 4, Section 6's remark on
  ordering heuristics), and the characteristic functions every check
  reads: ``E(t)``, ``E(a)``, ``E(a*)`` and the next-state function
  ``N(a)``, each built once per specification (Section 4),
* :mod:`repro.core.image` -- the transition functions ``delta_N`` and
  ``delta_D`` and their inverses (Section 4), one firing plan per
  transition,
* :mod:`repro.core.traversal` -- the one fixpoint routine (saturation by
  default, the chained loop of Figure 5 as the oracle), behind the
  reachability traversal and every backward/forward closure,
* :mod:`repro.core.state_checks` -- consistency (the ``Inconsistent``
  characteristic functions), safeness (Section 5.1) and determinism
  (Section 5.3), from one walk over the reachable set,
* :mod:`repro.core.conflicts` -- one pass over the pairs of transitions
  sharing an input place: transition and signal persistency (Figure 6)
  and the fake-conflict classification (Section 5.4),
* :mod:`repro.core.csc` -- the CSC check on the next-state on/off sets,
  and the excitation/quiescent regions (Section 5.3),
* :mod:`repro.core.reducibility` -- the detection of mutually
  complementary input sequences by frozen-input traversal (Section 5.3),
* :mod:`repro.core.pipeline` -- the
  :class:`~repro.core.pipeline.VerificationPipeline`: the shared
  encoding / image / reachable-BDD chain, computed once and reused by
  every property check (and by synthesis).

Verification runs through :func:`repro.api.verify`, whose symbolic
engine drives this package and produces an
:class:`~repro.report.ImplementabilityReport`.
"""

from repro.core.encoding import SymbolicEncoding
from repro.core.traversal import symbolic_traversal
from repro.core.pipeline import VerificationPipeline
from repro.report import ImplementabilityClass, ImplementabilityReport

__all__ = [
    "SymbolicEncoding",
    "symbolic_traversal",
    "VerificationPipeline",
    "ImplementabilityClass",
    "ImplementabilityReport",
]
