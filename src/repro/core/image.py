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
every pair).  A :class:`_FirePlan` resolves those steps **once** per
transition, and every firing is one
:func:`~repro.bdd.operators.transfer` recursion -- which also subtracts
an optional ``drop`` set, the states a fixpoint has already seen.  The
same resolved steps are the events of a saturation closure
(:meth:`SymbolicImage.events`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple

from repro.bdd import Function
from repro.core.charfun import CharacteristicFunctions
from repro.core.encoding import SymbolicEncoding

if TYPE_CHECKING:
    from repro.bdd.operators import SaturationEvents


class _FirePlan:
    """The resolved :class:`~repro.bdd.operators.TransferSteps` of one
    transition."""

    __slots__ = (
        "forward",   # delta_D: places and the fired signal
        "backward",  # inverse of delta_D
    )


def _swapped(steps: Dict[str, Tuple[bool, bool]]
             ) -> Dict[str, Tuple[bool, bool]]:
    """The inverse rewrite: every ``(require, assign)`` pair reversed."""
    return {name: (assign, require)
            for name, (require, assign) in steps.items()}


class SymbolicImage:
    """Forward and backward symbolic firing for one encoded STG."""

    def __init__(self, encoding: SymbolicEncoding,
                 charfun: Optional[CharacteristicFunctions] = None) -> None:
        self.encoding = encoding
        self.charfun = charfun or CharacteristicFunctions(encoding)
        self._plans: Dict[str, _FirePlan] = {}
        self._events: Dict[Tuple[Tuple[str, ...], str],
                           "SaturationEvents"] = {}

    def _plan(self, transition: str) -> _FirePlan:
        """The cached :class:`_FirePlan` of ``transition`` (built once)."""
        plan = self._plans.get(transition)
        if plan is None:
            plan = self._build_plan(transition)
            self._plans[transition] = plan
        return plan

    def _build_plan(self, transition: str) -> _FirePlan:
        # Imported on the first firing, like every Function operator:
        # importing this module (the daemon does at start-up) stays cheap.
        from repro.bdd.operators import TransferSteps

        encoding = self.encoding
        manager = encoding.manager
        net = encoding.stg.net
        place = encoding.place_variable

        preset = net.preset_of_transition(transition)
        postset = net.postset_of_transition(transition)
        steps: Dict[str, Tuple[bool, bool]] = {}
        for p in sorted(preset - postset):
            steps[place(p)] = (True, False)
        for p in sorted(postset - preset):
            steps[place(p)] = (False, True)
        # A self-loop place stays marked across the firing.
        for p in sorted(preset & postset):
            steps[place(p)] = (True, True)
        label = encoding.stg.label_of(transition)
        steps[encoding.signal_variable(label.signal)] = (
            not label.target_value, label.target_value)

        plan = _FirePlan()
        plan.forward = TransferSteps(manager, steps)
        plan.backward = TransferSteps(manager, _swapped(steps))
        return plan

    # ------------------------------------------------------------------
    # STG level (marking + signal code)
    # ------------------------------------------------------------------
    def fire(self, states: Function, transition: str,
             drop: Optional[Function] = None) -> Function:
        """``delta_D(states, t) - drop``: fire ``t``, update its signal.

        Following the paper, the cofactor with respect to the *old* signal
        value drops source states that would violate consistency (those are
        reported separately by :mod:`repro.core.consistency`).  ``drop``
        (default: none) is subtracted in the same pass.
        """
        return states.transfer(self._plan(transition).forward, drop)

    def fire_backward(self, states: Function, transition: str,
                      drop: Optional[Function] = None) -> Function:
        """Inverse of :meth:`fire`: predecessors under ``t``, minus ``drop``."""
        return states.transfer(self._plan(transition).backward, drop)

    def events(self, transitions: Iterable[str],
               direction: str) -> "SaturationEvents":
        """The saturation events of ``transitions`` fired ``direction``
        (``"forward"``: :meth:`fire`, ``"backward"``:
        :meth:`fire_backward`); built once per transition list."""
        key = (tuple(transitions), direction)
        events = self._events.get(key)
        if events is None:
            from repro.bdd.operators import SaturationEvents

            plans = [self._plan(t) for t in key[0]]
            events = SaturationEvents(self.encoding.manager, [
                plan.forward if direction == "forward" else plan.backward
                for plan in plans])
            self._events[key] = events
        return events

    # ------------------------------------------------------------------
    # Images over transition sets
    # ------------------------------------------------------------------
    def image(self, states: Function,
              transitions: Optional[Iterable[str]] = None) -> Function:
        """Union of ``delta_D(states, t)`` over ``transitions`` (default all)."""
        if transitions is None:
            transitions = self.encoding.stg.transitions
        result = self.encoding.manager.false
        for transition in transitions:
            result = result | self.fire(states, transition)
        return result

    def input_transitions(self) -> list:
        """Transitions labelled with *input* signals (for frozen traversals)."""
        stg = self.encoding.stg
        return [t for t in stg.transitions if stg.is_input(stg.signal_of(t))]
