"""Symbolic deadlock and home-state analysis.

A speed-independent controller specification is normally expected to run
forever (every state has some enabled transition); a deadlock usually
indicates a modelling error.  The check is a one-liner on top of the
characteristic functions: a reachable state is a deadlock iff it enables
no transition at all.

``reversibility`` (every reachable state can return to the initial state)
is also provided because it is a cheap, useful sanity check for cyclic
specifications: it is one saturated backward closure
(:func:`repro.core.traversal.fixpoint`).

Most marked graphs never need that closure.  A marked graph whose every
place lies on a circuit and whose every circuit carries a token is live
and reversible by its structure
(:func:`repro.petri.structure.is_live_reversible_marked_graph`).  The
pipeline (:meth:`repro.core.pipeline.VerificationPipeline.
reversibility`) takes that answer only when the consistency and
safeness checks also pass: those two guards make the symbolic states
exactly the net's states, and make the code return with the marking.
Every other specification, and so every failing verdict and count,
goes through :func:`check_reversibility`.

Reversibility implies deadlock freedom up to one state.  A reachable
state other than the initial one that can return to the initial state
has a successor, so it enables a transition; the initial state itself
can return in zero steps, so it is not covered.  Hence "reversible, and
the initial state enables a transition" means deadlock-free.  The
pipeline (:meth:`repro.core.pipeline.VerificationPipeline.
deadlock_freedom`) tests that first and builds :func:`deadlock_states`
only when it fails, so every deadlock count and witness still comes
from :func:`check_deadlock_freedom`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.bdd import Function
from repro.core.charfun import CharacteristicFunctions
from repro.core.encoding import SymbolicEncoding
from repro.core.image import SymbolicImage
from repro.core.traversal import fixpoint


@dataclass
class DeadlockResult:
    """Outcome of the symbolic deadlock check."""

    deadlock_free: bool
    num_deadlocks: int = 0
    witness: Optional[dict] = None

    def __str__(self) -> str:
        if self.deadlock_free:
            return "deadlock-free"
        return f"{self.num_deadlocks} deadlock state(s)"


def deadlock_states(encoding: SymbolicEncoding, reached: Function,
                    charfun: Optional[CharacteristicFunctions] = None
                    ) -> Function:
    """Characteristic function of the reachable states with nothing enabled."""
    charfun = charfun or CharacteristicFunctions(encoding)
    some_enabled = encoding.manager.false
    for transition in encoding.stg.transitions:
        some_enabled = some_enabled | charfun.enabled(transition)
    return reached - some_enabled


def check_deadlock_freedom(encoding: SymbolicEncoding, reached: Function,
                           charfun: Optional[CharacteristicFunctions] = None
                           ) -> DeadlockResult:
    """Report whether the specification can stop, with a witness state."""
    dead = deadlock_states(encoding, reached, charfun)
    if dead.is_false():
        return DeadlockResult(True)
    return DeadlockResult(False, encoding.count_states(dead),
                          encoding.witness(dead))


@dataclass
class ReversibilityResult:
    """Outcome of the reversibility (home state) check."""

    reversible: bool
    num_unreturnable: int = 0

    def __str__(self) -> str:
        if self.reversible:
            return "reversible (the initial state is a home state)"
        return (f"not reversible: {self.num_unreturnable} state(s) cannot "
                f"reach the initial state again")


def check_reversibility(encoding: SymbolicEncoding, reached: Function,
                        image: Optional[SymbolicImage] = None,
                        deadline: Optional[float] = None
                        ) -> ReversibilityResult:
    """Can every reachable state reach the initial state again?

    Computes the saturated backward closure of the initial state over
    all transitions (restricted to the reachable set) and compares it
    with the reachable set itself.  ``deadline`` is the cooperative
    deadline of :func:`~repro.core.traversal.fixpoint`.
    """
    image = image or SymbolicImage(encoding)
    can_return = fixpoint(image, encoding.initial_state(),
                          encoding.stg.transitions, "backward", "saturation",
                          restrict_to=reached, deadline=deadline)
    stranded = reached - can_return
    if stranded.is_false():
        return ReversibilityResult(True)
    return ReversibilityResult(False, encoding.count_states(stranded))
