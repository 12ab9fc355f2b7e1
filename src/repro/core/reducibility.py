"""Symbolic CSC-reducibility ingredients (Section 5.3).

Two of the three conditions of Definition 3.5 are checked directly on the
symbolic representation:

* **determinism** -- an emptiness test of the reachable set against one
  cube per pair of same-label transitions, answered with consistency
  and safeness in one walk by :mod:`repro.core.state_checks`;

* **mutually complementary input sequences** -- the frozen-signal
  backward+forward traversal described at the end of Section 5.3, run
  for the signals that violate CSC.  It starts from the states whose
  code is in ``CONT(a)`` (:attr:`~repro.core.csc.SymbolicCSCResult.
  contradictions`) and that lie in a quiescent region, and looks for
  the ones that lie in an excitation region.  Both sets come from
  ``CONT(a)`` and the next-state function ``N(a) = a ? not E(a-) :
  E(a+)`` (:func:`repro.core.csc.next_state`), with no region
  projected:

      QR(a+) + QR(a-) = R . (a . not E(a-) + a' . not E(a+))
                      = R . not (a xor N(a))
      ER(a+) + ER(a-) = R . (E(a+) + E(a-))

  (the regions here keep the place variables).  The excitation side
  stays in ``E`` form rather than ``a xor N(a)``, which equals it only
  on consistent states, so inconsistent specifications get the same
  sets too.

  Only the quiescent side is built.  The backward closure is bounded
  by ``R``, so the forward closure ``F`` starts inside ``R``; ``R`` is
  closed under forward firing, so ``F`` stays inside it and the forward
  closure needs no bound.  With ``F`` a subset of ``R``, ``F`` meets
  ``R . CONT(a) . (E(a+) + E(a-))`` exactly when it meets ``CONT(a) .
  (E(a+) + E(a-))``, a small set over codes and places.  The check
  tests the latter with :meth:`~repro.bdd.Function.disjoint`, a walk
  that builds no product.  No step assumes consistency.

The third condition, commutativity, is covered through fake-conflict
freedom (Section 5.4): a fake-free STG is commutative.  The pipeline
(:mod:`repro.core.pipeline`) therefore derives the commutativity verdict
from the fake-conflict analysis and only falls back to the explicit check
when fake conflicts are present.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional

from repro.bdd import Function
from repro.core.charfun import CharacteristicFunctions
from repro.core.csc import next_state
from repro.core.encoding import SymbolicEncoding
from repro.core.image import SymbolicImage
from repro.core.traversal import fixpoint


@dataclass
class SymbolicComplementaryResult:
    """Outcome of the frozen-traversal check for complementary sequences."""

    free: bool
    offending_signals: List[str] = field(default_factory=list)


def quiescent_conflicts(encoding: SymbolicEncoding, reached: Function,
                        charfun: CharacteristicFunctions, signal: str,
                        contradictory: Function) -> Function:
    """The start of the frozen closures: ``(R . CONT(a)) - (a xor
    N(a))``, the reachable states whose code is in ``contradictory``
    (the signal's ``CONT(a)``) and that lie in ``QR(a+) + QR(a-)``."""
    changing = encoding.signal(signal) ^ next_state(encoding, charfun, signal)
    return (reached & contradictory) - changing


def excited_conflicts(charfun: CharacteristicFunctions, signal: str,
                      contradictory: Function) -> Function:
    """The target of the frozen closures: ``CONT(a) . (E(a+) + E(a-))``,
    a set over codes and places.  It is not bounded by ``R``: the
    forward closure it is tested against lies in ``R`` already (see the
    module docstring)."""
    return contradictory & (charfun.generic_enabled(signal, "+")
                            | charfun.generic_enabled(signal, "-"))


def check_complementary_input_sequences(encoding: SymbolicEncoding,
                                        reached: Function,
                                        image: SymbolicImage,
                                        contradictions: Mapping[str, Function],
                                        deadline: Optional[float] = None
                                        ) -> SymbolicComplementaryResult:
    """Section 5.3: frozen-input backward+forward traversal per signal.

    ``contradictions`` maps each non-input signal with CSC
    contradictions to its ``CONT(a)``
    (:attr:`~repro.core.csc.SymbolicCSCResult.contradictions`); no
    other signal can offend.  For each, start from the quiescent-side
    contradictory states (:func:`quiescent_conflicts`), close backward
    then forward firing only input transitions (non-inputs are
    "frozen"), and test whether the closure meets
    :func:`excited_conflicts`.  Both closures are saturation
    :func:`~repro.core.traversal.fixpoint` runs, checking ``deadline``
    once per local-fixpoint round.  The backward one is bounded by the
    reachable set; the forward one starts inside it and needs no bound.
    Every signal's closures fire the same input events, so they share
    the saturation caches.
    """
    charfun = image.charfun
    inputs = image.input_transitions()
    offending: List[str] = []
    for signal, contradictory in contradictions.items():
        start = quiescent_conflicts(encoding, reached, charfun, signal,
                                    contradictory)
        backward = fixpoint(image, start, inputs, "backward", "saturation",
                            restrict_to=reached, deadline=deadline)
        frozen = fixpoint(image, backward, inputs, "forward", "saturation",
                          deadline=deadline)
        if not frozen.disjoint(excited_conflicts(charfun, signal,
                                                 contradictory)):
            offending.append(signal)
    return SymbolicComplementaryResult(not offending, offending)
