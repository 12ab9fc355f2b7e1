"""Symbolic (BDD-based) STG implementability checking -- the paper's core.

The modules of this package implement Sections 4 and 5 of the paper:

* :mod:`repro.core.encoding` -- boolean variables for places and signals,
  static variable-ordering strategies (Section 4, Section 6's remark on
  ordering heuristics),
* :mod:`repro.core.charfun` -- the characteristic functions ``E(t)``,
  ``ASM(t)``, ``NPM(t)``, ``NSM(t)`` and ``E(a*)`` (Section 4),
* :mod:`repro.core.image` -- the transition functions ``delta_N`` and
  ``delta_D`` and their inverses (Section 4),
* :mod:`repro.core.traversal` -- the one fixpoint routine (saturation by
  default, the chained loop of Figure 5 as the oracle), behind the
  reachability traversal and every backward/forward closure,
* :mod:`repro.core.safeness` -- symbolic safeness checking (Section 5.1),
* :mod:`repro.core.consistency` -- the ``Inconsistent`` characteristic
  functions (Section 5.1),
* :mod:`repro.core.conflicts` -- one pass over the pairs of transitions
  sharing an input place: transition and signal persistency (Figure 6)
  and the fake-conflict classification (Section 5.4),
* :mod:`repro.core.csc` -- the CSC check on the next-state on/off sets,
  and the excitation/quiescent regions (Section 5.3),
* :mod:`repro.core.reducibility` -- determinism and the detection of
  mutually complementary input sequences by frozen-input traversal
  (Section 5.3),
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
