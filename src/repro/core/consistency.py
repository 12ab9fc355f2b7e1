"""Symbolic consistency check (Section 5.1).

The characteristic function of inconsistent states is

    Inconsistent(a+) = E(a+) . a      (a+ enabled while a is already 1)
    Inconsistent(a-) = E(a-) . a'     (a- enabled while a is already 0)
    Inconsistent(a)  = Inconsistent(a+) + Inconsistent(a-)
    Inconsistent(D)  = sum over all signals

and the STG is inconsistent iff the reachable set intersects it.  Since
``E(a+)`` is the sum of ``E(t)`` over the transitions ``t`` labelled
``a+``, ``Inconsistent(a)`` is a sum of cubes: ``E(t) . a`` for each
rising and ``E(t) . a'`` for each falling transition of ``a``.  One
:meth:`~repro.bdd.Function.meets` pass over ``R`` tests every cube from
its literals, with no cube built; only a violating signal has ``R .
Inconsistent(a)`` built, to pick its witness state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bdd import Function
from repro.core.charfun import CharacteristicFunctions
from repro.core.encoding import SymbolicEncoding


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


def inconsistent_states(encoding: SymbolicEncoding,
                        charfun: CharacteristicFunctions,
                        signal: str) -> Function:
    """``Inconsistent(a)`` for one signal."""
    variable = encoding.signal(signal)
    rising = charfun.generic_enabled(signal, "+") & variable
    falling = charfun.generic_enabled(signal, "-") & ~variable
    return rising | falling


def check_consistency(encoding: SymbolicEncoding, reached: Function,
                      charfun: Optional[CharacteristicFunctions] = None
                      ) -> SymbolicConsistencyResult:
    """Ask which transitions the reachable set enables at the wrong value."""
    charfun = charfun or CharacteristicFunctions(encoding)
    stg = encoding.stg
    transitions = stg.transitions
    labels = [stg.label_of(transition) for transition in transitions]
    cubes = [{**charfun.enabled_literals(transition),
              encoding.signal_variable(label.signal): label.is_rising}
             for transition, label in zip(transitions, labels)]
    hit = {label.signal for label, meets in zip(labels, reached.meets(cubes))
           if meets}
    violating = [signal for signal in stg.signals if signal in hit]
    witnesses = {}
    for signal in violating:
        bad = reached & inconsistent_states(encoding, charfun, signal)
        witnesses[signal] = encoding.decode_state(
            bad.pick_one(encoding.all_variables))
    return SymbolicConsistencyResult(not violating, violating, witnesses)
