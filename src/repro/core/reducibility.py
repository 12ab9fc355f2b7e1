"""Symbolic CSC-reducibility ingredients (Section 5.3).

Two of the three conditions of Definition 3.5 are checked directly on the
symbolic representation:

* **determinism** -- two distinct transitions with the same generic label
  (``a+`` and ``a+/2``) enabled in the same reachable state violate
  determinism when their firing produces different successor states; for a
  safe net the successors differ exactly when the structural effects of
  the two transitions differ, which turns the check into a per-pair
  emptiness test, refining the paper's ``E(ti) n E(tj)`` formulation.
  ``E(ti) . E(tj)`` is a cube, so one
  :meth:`~repro.bdd.Function.meets` pass over ``R`` tests every pair;

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

The third condition, commutativity, is covered through fake-conflict
freedom (Section 5.4): a fake-free STG is commutative.  The pipeline
(:mod:`repro.core.pipeline`) therefore derives the commutativity verdict
from the fake-conflict analysis and only falls back to the explicit check
when fake conflicts are present.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.bdd import Function
from repro.core.charfun import CharacteristicFunctions
from repro.core.csc import next_state
from repro.core.encoding import SymbolicEncoding
from repro.core.image import SymbolicImage
from repro.core.traversal import fixpoint


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
@dataclass
class SymbolicDeterminismResult:
    """Outcome of the symbolic determinism check."""

    deterministic: bool
    violating_pairs: List[Tuple[str, str]] = field(default_factory=list)


def _structural_effect(encoding: SymbolicEncoding, transition: str
                       ) -> Tuple[frozenset, frozenset]:
    """Places consumed and produced by a transition (net effect)."""
    net = encoding.stg.net
    preset = net.preset_of_transition(transition)
    postset = net.postset_of_transition(transition)
    return frozenset(preset - postset), frozenset(postset - preset)


def check_determinism(encoding: SymbolicEncoding, reached: Function,
                      charfun: Optional[CharacteristicFunctions] = None
                      ) -> SymbolicDeterminismResult:
    """Definition 3.5(1) on the reachable set.

    A pair of distinct transitions carrying the same generic label
    violates determinism when the reachable set meets the cube ``E(ti) .
    E(tj)`` (the paper's formulation) and the two transitions have
    different structural effects; equal effects produce the same
    successor state, so such pairs are not tested at all.
    """
    charfun = charfun or CharacteristicFunctions(encoding)
    stg = encoding.stg
    by_generic: Dict[str, List[str]] = {}
    for transition in stg.transitions:
        by_generic.setdefault(stg.label_of(transition).generic, []).append(transition)
    pairs = [(first, second) for transitions in by_generic.values()
             for i, first in enumerate(transitions)
             for second in transitions[i + 1:]
             if _structural_effect(encoding, first)
             != _structural_effect(encoding, second)]
    cubes = [encoding.manager.cube({**charfun.enabled_literals(first),
                                    **charfun.enabled_literals(second)})
             for first, second in pairs]
    violations = [pair for pair, hit in zip(pairs, reached.meets(cubes))
                  if hit]
    return SymbolicDeterminismResult(not violations, violations)


# ----------------------------------------------------------------------
# Mutually complementary input sequences
# ----------------------------------------------------------------------
@dataclass
class SymbolicComplementaryResult:
    """Outcome of the frozen-traversal check for complementary sequences."""

    free: bool
    offending_signals: List[str] = field(default_factory=list)


def conflict_sets(encoding: SymbolicEncoding, reached: Function,
                  charfun: CharacteristicFunctions, signal: str,
                  contradictory: Function) -> Tuple[Function, Function]:
    """The quiescent- and excitation-side states of ``CONT(a)``.

    ``contradictory`` is the signal's ``CONT(a)``; the two sets are the
    reachable states with such a code in ``QR(a+) + QR(a-)`` and in
    ``ER(a+) + ER(a-)`` respectively (see the module docstring).
    """
    conflict = reached & contradictory
    changing = encoding.signal(signal) ^ next_state(encoding, charfun, signal)
    excited = (charfun.generic_enabled(signal, "+")
               | charfun.generic_enabled(signal, "-"))
    return conflict - changing, conflict & excited


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
    contradictory states, close backward then forward firing only input
    transitions (non-inputs are "frozen"), and test whether an
    excitation-side contradictory state is reached
    (:func:`conflict_sets`).  Both closures are
    saturation :func:`~repro.core.traversal.fixpoint` runs bounded by
    the reachable set, checking ``deadline`` once per local-fixpoint
    round.  Every signal's closures fire the same input events, so they
    share the saturation caches.
    """
    charfun = image.charfun
    inputs = image.input_transitions()
    offending: List[str] = []
    for signal, contradictory in contradictions.items():
        quiescent_conflict, excitation_conflict = conflict_sets(
            encoding, reached, charfun, signal, contradictory)
        backward = fixpoint(image, quiescent_conflict, inputs, "backward",
                            "saturation", restrict_to=reached,
                            deadline=deadline)
        reached_frozen = fixpoint(image, backward, inputs, "forward",
                                  "saturation", restrict_to=reached,
                                  deadline=deadline)
        if not (reached_frozen & excitation_conflict).is_false():
            offending.append(signal)
    return SymbolicComplementaryResult(not offending, offending)
