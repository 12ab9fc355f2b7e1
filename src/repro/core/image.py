"""Symbolic transition functions (Section 4).

``delta_N`` transforms a set of markings by firing one transition:

    delta_N(M, t) = ((M_{E(t)} . NPM(t))_{NSM(t)}) . ASM(t)

``delta_D`` extends it to STG full states by updating the variable of the
fired signal (cofactor with respect to the old value, conjunction with the
new value).  The inverse functions used by the backward traversals of the
liveness and CSC-reducibility checks are also provided; they handle
self-loop places (``p`` in both the preset and the postset) explicitly.

All functions operate on characteristic functions over the variables of a
:class:`~repro.core.encoding.SymbolicEncoding` and never enumerate states.

``E(t)``, ``NPM(t)``, ``NSM(t)``, ``ASM(t)`` and the signal literals are
all cubes, so the whole firing is one per-variable rewrite: each
pre-only place goes 1 -> 0, each post-only place 0 -> 1, each self-loop
place 1 -> 1 and the fired signal old -> new (backward firing swaps
every pair).  :class:`SymbolicImage` resolves those steps into
:class:`~repro.bdd.operators.TransferSteps` **once** per transition and
direction, from the encoding's step table
(:meth:`~repro.core.encoding.SymbolicEncoding.firing_steps`: the
transition's places and signal, already at their levels), and every
firing is one
:func:`~repro.bdd.operators.transfer` recursion -- which also subtracts
an optional ``drop`` set, the states a fixpoint has already seen.  The
same resolved steps are the events of a saturation closure
(:meth:`SymbolicImage.events`).  A transition's backward steps are
built on the first backward firing or backward :meth:`events` call:
only the closures fire backward, and a live marked graph runs none.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple

from repro.bdd import Function
from repro.core.charfun import CharacteristicFunctions
from repro.core.encoding import SymbolicEncoding

if TYPE_CHECKING:
    from repro.bdd.operators import SaturationEvents, TransferSteps


class SymbolicImage:
    """Forward and backward symbolic firing for one encoded STG."""

    def __init__(self, encoding: SymbolicEncoding,
                 charfun: Optional[CharacteristicFunctions] = None) -> None:
        self.encoding = encoding
        self.charfun = charfun or CharacteristicFunctions(encoding)
        #: Per direction, the resolved steps of each transition fired
        #: that way so far.
        self._steps: Dict[str, Dict[str, "TransferSteps"]] = {
            "forward": {}, "backward": {}}
        self._events: Dict[Tuple[Tuple[str, ...], str],
                           "SaturationEvents"] = {}

    def _transfer_steps(self, transition: str,
                        direction: str) -> "TransferSteps":
        """The steps of ``transition`` fired ``direction`` (built once)."""
        resolved = self._steps[direction]
        steps = resolved.get(transition)
        if steps is None:
            steps = self._resolve(transition, direction == "backward")
            resolved[transition] = steps
        return steps

    def _resolve(self, transition: str, backward: bool) -> "TransferSteps":
        # Imported on the first firing, like every Function operator:
        # importing this module (the daemon does at start-up) stays cheap.
        from repro.bdd.operators import TransferSteps

        steps = self.encoding.firing_steps(transition)
        if backward:
            # The inverse rewrite: every (require, assign) pair reversed.
            steps = [(level, assign, require)
                     for level, require, assign in steps]
        return TransferSteps.at_levels(self.encoding.manager, steps)

    # ------------------------------------------------------------------
    # STG level (marking + signal code)
    # ------------------------------------------------------------------
    def fire(self, states: Function, transition: str,
             drop: Optional[Function] = None) -> Function:
        """``delta_D(states, t) - drop``: fire ``t``, update its signal.

        Following the paper, the cofactor with respect to the *old* signal
        value drops source states that would violate consistency (those are
        reported separately by :mod:`repro.core.state_checks`).  ``drop``
        (default: none) is subtracted in the same pass.
        """
        return states.transfer(self._transfer_steps(transition, "forward"),
                               drop)

    def fire_backward(self, states: Function, transition: str,
                      drop: Optional[Function] = None) -> Function:
        """Inverse of :meth:`fire`: predecessors under ``t``, minus ``drop``."""
        return states.transfer(self._transfer_steps(transition, "backward"),
                               drop)

    def events(self, transitions: Iterable[str],
               direction: str) -> "SaturationEvents":
        """The saturation events of ``transitions`` fired ``direction``
        (``"forward"``: :meth:`fire`, ``"backward"``:
        :meth:`fire_backward`); built once per transition list."""
        key = (tuple(transitions), direction)
        events = self._events.get(key)
        if events is None:
            from repro.bdd.operators import SaturationEvents

            events = SaturationEvents(self.encoding.manager, [
                self._transfer_steps(t, direction) for t in key[0]])
            self._events[key] = events
        return events

    # ------------------------------------------------------------------
    # Images over transition sets
    # ------------------------------------------------------------------
    def image(self, states: Function) -> Function:
        """Union of ``delta_D(states, t)`` over every transition."""
        result = self.encoding.manager.false
        for transition in self.encoding.stg.transitions:
            result = result | self.fire(states, transition)
        return result

    def input_transitions(self) -> list:
        """Transitions labelled with *input* signals (for frozen traversals)."""
        stg = self.encoding.stg
        return [t for t in stg.transitions if stg.is_input(stg.signal_of(t))]
