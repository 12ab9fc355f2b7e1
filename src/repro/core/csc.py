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
instead of four of each.  USC (unique state coding) is additionally
reported by comparing the number of reachable full states with the
number of distinct codes.

:func:`compute_regions` builds the four regions themselves, with and
without the place variables, for the signals whose regions a caller
needs (the complementary-sequence check, logic derivation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bdd import Function
from repro.core.charfun import CharacteristicFunctions
from repro.core.encoding import SymbolicEncoding


@dataclass
class SignalRegionsSymbolic:
    """Region characteristic functions of one signal.

    ``er_plus`` / ``er_minus`` / ``qr_plus`` / ``qr_minus`` are functions
    over the *signal* variables only (codes); the ``*_states`` variants
    keep the place variables (full states) for use by the reducibility
    check.
    """

    signal: str
    er_plus: Function
    er_minus: Function
    qr_plus: Function
    qr_minus: Function
    er_plus_states: Function
    er_minus_states: Function
    qr_plus_states: Function
    qr_minus_states: Function

    @property
    def contradictory_codes(self) -> Function:
        """``CONT(a)``: codes breaking CSC for this signal."""
        return (self.er_plus & self.qr_minus) | (self.er_minus & self.qr_plus)


@dataclass
class SymbolicCSCResult:
    """Outcome of the symbolic CSC check."""

    csc: bool
    usc: bool
    violating_signals: List[str] = field(default_factory=list)
    witnesses: Dict[str, dict] = field(default_factory=dict)

    def __str__(self) -> str:
        if self.csc:
            return "CSC satisfied"
        return "CSC violated for " + ", ".join(self.violating_signals)


def compute_regions(encoding: SymbolicEncoding, reached: Function,
                    charfun: CharacteristicFunctions,
                    signal: str) -> SignalRegionsSymbolic:
    """Excitation / quiescent regions of one signal."""
    places = encoding.place_variables
    variable = encoding.signal(signal)
    e_plus = charfun.generic_enabled(signal, "+")
    e_minus = charfun.generic_enabled(signal, "-")
    er_plus_states = reached & e_plus
    er_minus_states = reached & e_minus
    qr_plus_states = (reached & variable) - e_minus
    qr_minus_states = (reached & ~variable) - e_plus
    return SignalRegionsSymbolic(
        signal=signal,
        er_plus=er_plus_states.exist(places),
        er_minus=er_minus_states.exist(places),
        qr_plus=qr_plus_states.exist(places),
        qr_minus=qr_minus_states.exist(places),
        er_plus_states=er_plus_states,
        er_minus_states=er_minus_states,
        qr_plus_states=qr_plus_states,
        qr_minus_states=qr_minus_states,
    )


def check_csc(encoding: SymbolicEncoding, reached: Function,
              charfun: Optional[CharacteristicFunctions] = None,
              signals: Optional[List[str]] = None) -> SymbolicCSCResult:
    """CSC over all non-input signals (or an explicit signal list)."""
    charfun = charfun or CharacteristicFunctions(encoding)
    to_check = signals if signals is not None \
        else encoding.stg.noninput_signals
    places = encoding.place_variables
    violating: List[str] = []
    witnesses: Dict[str, dict] = {}
    for signal in to_check:
        next_state = encoding.signal(signal).ite(
            ~charfun.generic_enabled(signal, "-"),
            charfun.generic_enabled(signal, "+"))
        on = (reached & next_state).exist(places)
        off = (reached - next_state).exist(places)
        conflict = on & off
        if conflict.is_false():
            continue
        violating.append(signal)
        model = conflict.pick_one(encoding.signal_variables)
        if model is not None:
            code = {s: bool(model.get(encoding.signal_variable(s), False))
                    for s in encoding.stg.signals}
            witnesses[signal] = {"code": code}
    usc = _check_usc(encoding, reached)
    return SymbolicCSCResult(not violating, usc, violating, witnesses)


def _check_usc(encoding: SymbolicEncoding, reached: Function) -> bool:
    """USC: every reachable full state has a distinct binary code."""
    num_states = encoding.count_states(reached)
    codes = reached.exist(encoding.place_variables)
    num_codes = codes.sat_count(care_vars=encoding.signal_variables)
    return num_states == num_codes
