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
  for the signals that violate CSC.

The third condition, commutativity, is covered through fake-conflict
freedom (Section 5.4): a fake-free STG is commutative.  The pipeline
(:mod:`repro.core.pipeline`) therefore derives the commutativity verdict
from the fake-conflict analysis and only falls back to the explicit check
when fake conflicts are present.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bdd import Function
from repro.core.charfun import CharacteristicFunctions
from repro.core.csc import compute_regions
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


def check_complementary_input_sequences(encoding: SymbolicEncoding,
                                        reached: Function,
                                        image: SymbolicImage,
                                        signals: Sequence[str],
                                        deadline: Optional[float] = None
                                        ) -> SymbolicComplementaryResult:
    """Section 5.3: frozen-input backward+forward traversal per signal.

    ``signals`` are the non-input signals with CSC contradictions
    (:attr:`~repro.core.csc.SymbolicCSCResult.violating_signals`); no
    other signal can offend.  For each, start from the quiescent-side
    contradictory states, close backward then forward firing only input
    transitions (non-inputs are "frozen"), and test whether an
    excitation-side contradictory state is reached.  Both closures are
    saturation :func:`~repro.core.traversal.fixpoint` runs bounded by
    the reachable set, checking ``deadline`` once per local-fixpoint
    round.  Every signal's closures fire the same input events, so they
    share the saturation caches.
    """
    charfun = image.charfun
    inputs = image.input_transitions()
    offending: List[str] = []
    for signal in signals:
        regions = compute_regions(encoding, reached, charfun, signal)
        contradictory = regions.contradictory_codes
        quiescent_conflict = (regions.qr_plus_states
                              | regions.qr_minus_states) & contradictory
        if quiescent_conflict.is_false():
            continue
        backward = fixpoint(image, quiescent_conflict, inputs, "backward",
                            "saturation", restrict_to=reached,
                            deadline=deadline)
        reached_frozen = fixpoint(image, backward, inputs, "forward",
                                  "saturation", restrict_to=reached,
                                  deadline=deadline)
        excitation_conflict = (regions.er_plus_states
                               | regions.er_minus_states) & contradictory
        if not (reached_frozen & excitation_conflict).is_false():
            offending.append(signal)
    return SymbolicComplementaryResult(not offending, offending)
