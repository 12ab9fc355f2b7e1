"""Symbolic Complete State Coding check (Section 5.3).

For each non-input signal ``a`` the excitation and quiescent regions are
projected onto the signal variables (the binary codes) by existentially
abstracting the place variables:

    ER(a+) = exists_P ( R . E(a+) )
    ER(a-) = exists_P ( R . E(a-) )
    QR(a+) = exists_P ( R . a  . not E(a-) )
    QR(a-) = exists_P ( R . a' . not E(a+) )

and CSC(a) holds iff ``CONT(a) = ER(a+).QR(a-) + ER(a-).QR(a+)`` is
empty.  The check decides it from the next-state function instead
(Cortadella, Kishinevsky, Kondratyev, Lavagno & Yakovlev, *Logic
Synthesis for Asynchronous Controllers and Interfaces*, 2002):

    N(a)   = a ? not E(a-) : E(a+)      (the value a is heading to)
    ON(a)  = exists_P ( R . N(a) )
    OFF(a) = exists_P ( R . not N(a) )

and ``ON(a) . OFF(a) = CONT(a)`` for every STG, consistent or not.  The
projection keeps ``a``, so split both sides on it.  ``QR(a+)`` lies in
``a = 1`` and ``QR(a-)`` in ``a = 0``, so ``CONT(a)`` is ``ER(a-) .
QR(a+)`` where ``a = 1`` and ``ER(a+) . QR(a-)`` where ``a = 0``.  Where
``a = 1``, ``N(a) = not E(a-)``: ``ON`` is ``QR(a+)`` and ``OFF`` is
``exists_P (R . a . E(a-))``, which is ``ER(a-)`` there.  Where ``a =
0``, ``N(a) = E(a+)``: ``ON`` is ``ER(a+)`` there and ``OFF`` is
``QR(a-)``.  No step assumes consistency (``E(a+)`` never enters the
``a = 1`` half, ``E(a-)`` never the ``a = 0`` half).  So ``ON(a) .
OFF(a)`` and ``CONT(a)`` are one function -- the same BDD node, hence the
same witness code -- built from two products and two projections
instead of four of each.

The two products are one split of ``R`` by ``N(a)``:
``R . N(a)`` and ``R . not N(a)`` walk the same node pairs, so
:meth:`~repro.bdd.Function.split` returns both from one recursion and
one cache, at half the lookups of a product and a difference.

USC (unique state coding) is decided first, by comparing the number of
reachable full states with the number of distinct codes.  The state
count is the one the traversal already took
(:attr:`~repro.core.stats.TraversalStats.num_states`, exact on a cold
traversal, a BDD-store hit and both delta tiers), so only the codes
are counted here.  When the two are equal every reachable code belongs
to exactly one reachable state.
A code in ``ON(a) . OFF(a)`` needs two reachable states that share it,
one with ``N(a)`` and one without, so under USC every ``CONT(a)`` is
empty: CSC holds, and no ``ON(a)`` or ``OFF(a)`` is built.  Otherwise
each violator's ``CONT(a)`` is kept on the result, where the
complementary-sequence check (:mod:`repro.core.reducibility`) starts
from it.

Logic synthesis
(:func:`repro.synthesis.functions.derive_next_state_function`) reads
its on- and off-sets off the same split.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bdd import Function
from repro.core.charfun import CharacteristicFunctions
from repro.core.encoding import SymbolicEncoding


@dataclass
class SymbolicCSCResult:
    """Outcome of the symbolic CSC check.

    ``contradictions`` maps each violating signal to its ``CONT(a)``
    (a function over the codes).  It is an intermediate for the
    complementary-sequence check, never part of the verdict: it is left
    out of comparisons and is not serialised.
    """

    csc: bool
    usc: bool
    violating_signals: List[str] = field(default_factory=list)
    witnesses: Dict[str, dict] = field(default_factory=dict)
    contradictions: Dict[str, Function] = field(
        default_factory=dict, compare=False, repr=False)

    def __str__(self) -> str:
        if self.csc:
            return "CSC satisfied"
        return "CSC violated for " + ", ".join(self.violating_signals)


def next_state(encoding: SymbolicEncoding, charfun: CharacteristicFunctions,
               signal: str) -> Function:
    """``N(a) = a ? not E(a-) : E(a+)``, the value ``a`` is heading to."""
    return encoding.signal(signal).ite(~charfun.generic_enabled(signal, "-"),
                                       charfun.generic_enabled(signal, "+"))


def check_csc(encoding: SymbolicEncoding, reached: Function,
              num_states: int,
              charfun: Optional[CharacteristicFunctions] = None,
              signals: Optional[List[str]] = None) -> SymbolicCSCResult:
    """CSC over all non-input signals (or an explicit signal list).

    ``num_states`` is the number of full states in ``reached``, as the
    traversal counted it.
    """
    if _check_usc(encoding, reached, num_states):
        return SymbolicCSCResult(True, True)
    charfun = charfun or CharacteristicFunctions(encoding)
    to_check = signals if signals is not None \
        else encoding.stg.noninput_signals
    places = encoding.place_variables
    contradictions: Dict[str, Function] = {}
    witnesses: Dict[str, dict] = {}
    for signal in to_check:
        on, off = reached.split(next_state(encoding, charfun, signal))
        conflict = on.exist(places) & off.exist(places)
        if conflict.is_false():
            continue
        contradictions[signal] = conflict
        model = conflict.pick_one(encoding.signal_variables)
        if model is not None:
            code = {s: bool(model.get(encoding.signal_variable(s), False))
                    for s in encoding.stg.signals}
            witnesses[signal] = {"code": code}
    violating = list(contradictions)
    return SymbolicCSCResult(not violating, False, violating, witnesses,
                             contradictions)


def _check_usc(encoding: SymbolicEncoding, reached: Function,
               num_states: int) -> bool:
    """USC: every one of the ``num_states`` reachable full states has a
    distinct binary code."""
    codes = reached.exist(encoding.place_variables)
    num_codes = codes.sat_count(care_vars=encoding.signal_variables)
    return num_states == num_codes
