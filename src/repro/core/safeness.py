"""Symbolic safeness (1-boundedness) checking (Section 5.1, after [9]).

The encoding uses one boolean variable per place, so only safe markings
are representable; unsafe behaviour manifests as a reachable marking that
enables a transition whose firing would add a token to a place that is
already marked (and is not simultaneously consumed).  Detecting such an
*overflow firing* is therefore a sound and complete safeness check for
nets explored under safe semantics: the traversal reaches every marking up
to the first overflow, and the overflow itself is caught here.  The
encoding reads any initial count above 0 as one token, so an initial
count above 1 is checked on the net first and fails with the initial
state as witness.

Each overflow pair ``(t, p)`` -- ``p`` in the postset of ``t`` but not
its preset -- is the cube ``E(t) . p``, and the pair overflows iff the
reachable set meets that cube.  One :meth:`~repro.bdd.Function.meets`
pass over ``R`` answers every pair; only the first pair that hits has
its product ``R . E(t) . p`` built, to pick the witness state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.bdd import Function
from repro.core.charfun import CharacteristicFunctions
from repro.core.encoding import SymbolicEncoding


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


def check_safeness(encoding: SymbolicEncoding, reached: Function,
                   charfun: Optional[CharacteristicFunctions] = None
                   ) -> SafenessResult:
    """Detect overflow firings from the reachable set."""
    stg = encoding.stg
    net = stg.net
    overmarked = [place for place in net.places
                  if net.place(place).initial_tokens > 1]
    if overmarked:
        return SafenessResult(False, witness={
            "marking": stg.initial_marking(),
            "code": stg.initial_state_vector()}, overmarked=overmarked)
    charfun = charfun or CharacteristicFunctions(encoding)
    pairs = [(transition, place) for transition in net.transitions
             for place in sorted(net.postset_of_transition(transition)
                                 - net.preset_of_transition(transition))]
    cubes = [encoding.manager.cube({**charfun.enabled_literals(transition),
                                    encoding.place_variable(place): True})
             for transition, place in pairs]
    overflows = [pair for pair, hit in zip(pairs, reached.meets(cubes))
                 if hit]
    if not overflows:
        return SafenessResult(True)
    bad = reached & cubes[pairs.index(overflows[0])]
    return SafenessResult(False, overflows, encoding.decode_state(
        bad.pick_one(encoding.all_variables)))
