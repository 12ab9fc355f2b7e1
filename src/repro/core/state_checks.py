"""Consistency, safeness and determinism from one walk over ``R``
(Sections 5.1 and 5.3).

Each of the three checks asks whether the reachable set ``R`` meets
any cube of a list:

* **consistency** -- the inconsistent states of signal ``a`` are
  ``Inconsistent(a) = E(a+) . a + E(a-) . a'`` (``a+`` enabled while
  ``a`` is already 1, or ``a-`` while it is 0).  ``E(a+)`` is the sum
  of ``E(t)`` over the transitions ``t`` labelled ``a+``, so
  ``Inconsistent(a)`` is a sum of cubes: ``E(t) . a`` for each rising
  and ``E(t) . a'`` for each falling transition of ``a``;
* **safeness** (after [9]) -- the encoding has one boolean variable per
  place, so only safe markings are representable.  Unsafe behaviour
  shows as a reachable state that enables a transition ``t`` whose
  firing would mark a place ``p`` that is marked already and that
  ``t`` does not consume: the cube ``E(t) . p`` of the *overflow pair*
  ``(t, p)``.  The traversal reaches every marking up to the first
  overflow, so this is a sound and complete safeness check for nets
  explored under safe semantics.  The encoding reads an initial count
  above 0 as one token, so an initial count above 1 is checked on the
  net first; it fails safeness with the initial state as witness, and
  no overflow cube is asked;
* **determinism** (Definition 3.5(1)) -- two distinct transitions with
  the same generic label (``a+`` and ``a+/2``) enabled in one reachable
  state violate it when their firings lead to different states.  In a
  safe net they do exactly when the two transitions' structural effects
  differ, so the check asks the cube ``E(ti) . E(tj)`` of each such
  pair: the paper's ``E(ti) n E(tj)``, refined by the effects.

:func:`check_state_cubes` builds every cube as ``(level, value)``
literals straight off the encoding's step table, and one
:meth:`~repro.bdd.Function.meets` walk over ``R`` answers them all; the
walk builds no cube and creates no node.  Only a failing check builds
BDDs, to pick its witness.  ``R`` times the sum of a signal's cubes
that hit is ``R . Inconsistent(a)``, since a cube ``R`` misses adds no
state, and the first overflow pair's cube gives ``R . E(t) . p``; so
the witness is the state the product formulation picks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.bdd import Function
from repro.core.encoding import SymbolicEncoding

#: A cube as the ``(level, value)`` literals
#: :meth:`~repro.bdd.manager.BDDManager.cube_at` takes.
Cube = List[Tuple[int, bool]]


@dataclass
class SymbolicConsistencyResult:
    """Outcome of the symbolic consistency check."""

    consistent: bool
    violating_signals: List[str] = field(default_factory=list)
    witnesses: Dict[str, dict] = field(default_factory=dict)

    def __str__(self) -> str:
        if self.consistent:
            return "consistent state assignment"
        return ("inconsistent state assignment for signals "
                + ", ".join(self.violating_signals))


@dataclass
class SafenessResult:
    """Outcome of the symbolic safeness check."""

    safe: bool
    overflows: List[Tuple[str, str]] = field(default_factory=list)
    witness: Optional[dict] = None
    #: Places the initial marking gives more than one token.
    overmarked: List[str] = field(default_factory=list)

    def __str__(self) -> str:
        if self.safe:
            return "safe (1-bounded)"
        if self.overmarked:
            return ("not safe: the initial marking puts more than one "
                    "token on " + ", ".join(self.overmarked))
        pairs = ", ".join(f"{t} overflows {p}" for t, p in self.overflows[:5])
        return f"not safe: {pairs}"


@dataclass
class SymbolicDeterminismResult:
    """Outcome of the symbolic determinism check."""

    deterministic: bool
    violating_pairs: List[Tuple[str, str]] = field(default_factory=list)


class StateChecks(NamedTuple):
    """The three verdicts of one walk over ``R``."""

    consistency: SymbolicConsistencyResult
    safeness: SafenessResult
    determinism: SymbolicDeterminismResult


def check_state_cubes(encoding: SymbolicEncoding,
                      reached: Function) -> StateChecks:
    """Consistency, safeness and determinism of ``reached``, from one
    :meth:`~repro.bdd.Function.meets` walk over its nodes."""
    stg = encoding.stg
    net = stg.net
    steps, levels = encoding.steps, encoding.levels
    enabled: Dict[str, Cube] = {
        transition: [(levels[place], True) for place in step.preset]
        for transition, step in steps.items()}
    # Consistency: E(t) . a for a rising t of signal a, E(t) . a' for a
    # falling one.
    inconsistent = [enabled[transition]
                    + [(levels[steps[transition].signal],
                        steps[transition].rising)]
                    for transition in stg.transitions]
    # Safeness: E(t) . p per post-only place p of t (sorted ids, so in
    # name order), unless the initial marking is over already.
    overmarked = [place for place in net.places
                  if net.place(place).initial_tokens > 1]
    overflows = [] if overmarked else [
        (transition, place) for transition, step in steps.items()
        for place in step.post]
    overflowing = [enabled[transition] + [(levels[place], True)]
                   for transition, place in overflows]
    # Determinism: E(ti) . E(tj) per pair of same-label transitions whose
    # effects, the places each consumes and produces, differ.
    by_generic: Dict[str, List[str]] = {}
    for transition in stg.transitions:
        by_generic.setdefault(stg.label_of(transition).generic,
                              []).append(transition)
    pairs = [(first, second) for transitions in by_generic.values()
             for i, first in enumerate(transitions)
             for second in transitions[i + 1:]
             if (steps[first].pre, steps[first].post)
             != (steps[second].pre, steps[second].post)]
    both_enabled = [enabled[first] + enabled[second]
                    for first, second in pairs]

    hits = reached.meets(inconsistent + overflowing + both_enabled)
    first_overflow = len(inconsistent)
    first_pair = first_overflow + len(overflowing)
    manager = encoding.manager

    inconsistent_cubes: Dict[str, List[Cube]] = {}
    for transition, cube, hit in zip(stg.transitions, inconsistent,
                                     hits[:first_overflow]):
        if hit:
            inconsistent_cubes.setdefault(stg.signal_of(transition),
                                          []).append(cube)
    violating = [signal for signal in stg.signals
                 if signal in inconsistent_cubes]
    witnesses = {}
    for signal in violating:
        bad = manager.false
        for cube in inconsistent_cubes[signal]:
            bad = bad | manager.cube_at(cube)
        witnesses[signal] = encoding.witness(reached & bad)
    consistency = SymbolicConsistencyResult(not violating, violating,
                                            witnesses)

    found = [index for index, hit
             in enumerate(hits[first_overflow:first_pair]) if hit]
    if overmarked:
        safeness = SafenessResult(False, witness={
            "marking": stg.initial_marking(),
            "code": stg.initial_state_vector()}, overmarked=overmarked)
    elif found:
        safeness = SafenessResult(
            False, [(overflows[index][0],
                     encoding.place_of(overflows[index][1]))
                    for index in found],
            encoding.witness(reached
                             & manager.cube_at(overflowing[found[0]])))
    else:
        safeness = SafenessResult(True)

    violations = [pair for pair, hit in zip(pairs, hits[first_pair:])
                  if hit]
    determinism = SymbolicDeterminismResult(not violations, violations)
    return StateChecks(consistency, safeness, determinism)
