"""Next-state functions of non-input signals.

For a non-input signal ``a`` of a consistent, CSC-satisfying state graph,
the next-state function maps every reachable binary code to the value the
circuit must drive:

* **on-set**  -- codes where the signal is excited to rise (``ER(a+)``) or
  stable at 1 (``QR(a+)``),
* **off-set** -- codes where it is excited to fall (``ER(a-)``) or stable
  at 0 (``QR(a-)``),
* **don't-care set** -- codes that are not reachable at all.

Both sets are read off the split the CSC check makes
(:mod:`repro.core.csc`): with ``N(a) = a ? not E(a-) : E(a+)`` (built
once per signal by
:meth:`~repro.core.encoding.SymbolicEncoding.next_state`), the on-set is ``exists_P (R . N(a))`` and the off-set ``exists_P (R . not
N(a))``.  Under a consistent state assignment ``E(a+)`` holds only where
``a = 0`` and ``E(a-)`` only where ``a = 1``, so the excitation regions
are the on-set where ``a = 0`` and the off-set where ``a = 1``.

CSC is exactly the condition making on- and off-set disjoint, so the
derivation refuses to proceed (per signal) when they overlap -- the same
criterion the checker reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.bdd import Function
from repro.core.encoding import SymbolicEncoding


class SynthesisError(Exception):
    """Raised when logic cannot be derived (CSC violation, no signals...)."""


@dataclass
class NextStateFunction:
    """On/off/don't-care sets of one non-input signal (over signal codes)."""

    signal: str
    on_set: Function
    off_set: Function
    dont_care: Function
    excitation_on: Function   # ER(a+): the set part of a gC implementation
    excitation_off: Function  # ER(a-): the reset part

    @property
    def is_well_defined(self) -> bool:
        """True when the on- and off-sets do not overlap (CSC for the signal)."""
        return self.on_set.disjoint(self.off_set)


def derive_next_state_function(encoding: SymbolicEncoding, reached: Function,
                               signal: str) -> NextStateFunction:
    """Derive the next-state function of one non-input signal.

    The excitation regions are exact under a consistent state
    assignment, which :func:`derive_next_state_functions` enforces.
    """
    if encoding.stg.is_input(signal):
        raise SynthesisError(
            f"signal {signal!r} is an input; the environment drives it")
    places = encoding.place_variables
    variable = encoding.signal(signal)
    on, off = reached.split(encoding.next_state(signal))
    on_set = on.exist(places)
    off_set = off.exist(places)
    return NextStateFunction(
        signal=signal,
        on_set=on_set,
        off_set=off_set,
        dont_care=~reached.exist(places),
        excitation_on=on_set - variable,
        excitation_off=off_set & variable,
    )


def derive_next_state_functions(encoding: SymbolicEncoding, reached: Function,
                                require_csc: bool = True
                                ) -> Dict[str, NextStateFunction]:
    """Next-state functions for every non-input signal.

    With ``require_csc`` (default) a :class:`SynthesisError` is raised as
    soon as one signal has overlapping on/off sets; with it disabled the
    ill-defined functions are still returned (useful for diagnostics).
    The reachable set is first checked for a consistent state assignment
    -- synthesising from an inconsistent specification would silently
    produce garbage.
    """
    from repro.core.state_checks import check_state_cubes

    consistency = check_state_cubes(encoding, reached).consistency
    if not consistency.consistent:
        raise SynthesisError(
            "the specification has an inconsistent state assignment "
            f"(signals {', '.join(consistency.violating_signals)}); "
            "refusing to derive logic from it")
    targets = encoding.stg.noninput_signals
    if not targets:
        raise SynthesisError("the specification has no non-input signals")
    functions: Dict[str, NextStateFunction] = {}
    for signal in targets:
        function = derive_next_state_function(encoding, reached, signal)
        if require_csc and not function.is_well_defined:
            raise SynthesisError(
                f"signal {signal!r} violates CSC; its next-state function "
                f"is not well defined")
        functions[signal] = function
    return functions
