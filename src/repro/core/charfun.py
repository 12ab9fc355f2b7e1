"""Characteristic functions of Section 4.

For a transition ``t`` of a safe Petri net:

* ``E(t)``   -- all input places marked (``t`` enabled),
* ``ASM(t)`` -- all successor places marked,
* ``NPM(t)`` -- no predecessor place marked,
* ``NSM(t)`` -- no successor place marked,

and for a signal transition label ``a*``:

* ``E(a*)``  -- some transition labelled ``a*`` is enabled,
* ``E(a)``   -- some transition of signal ``a`` (either polarity) is enabled.

All functions are cubes (or disjunctions of cubes) over the place
variables of a :class:`~repro.core.encoding.SymbolicEncoding`.  They are
cached per encoding because the traversal and every property check reuse
them heavily.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Mapping

from repro.bdd import Function
from repro.core.encoding import SymbolicEncoding


class CharacteristicFunctions:
    """Cached characteristic functions for one encoded STG.

    Every cube is built from the encoding's step table
    (:attr:`~repro.core.encoding.SymbolicEncoding.steps`): a
    transition's places are ids already, and the encoding holds their
    levels.
    """

    def __init__(self, encoding: SymbolicEncoding) -> None:
        self.encoding = encoding
        self._enabled: Dict[str, Function] = {}
        self._enabled_literals: Dict[str, Mapping[str, bool]] = {}
        self._signal_enabled: Dict[str, Function] = {}
        self._generic_enabled: Dict[str, Function] = {}

    # ------------------------------------------------------------------
    # Per-transition cubes
    # ------------------------------------------------------------------
    def enabled(self, transition: str) -> Function:
        """``E(t)``: conjunction of the input-place variables."""
        cached = self._enabled.get(transition)
        if cached is None:
            cached = self._enabled[transition] = self.encoding.cube(
                self.encoding.step(transition).preset, True)
        return cached

    def all_successors_marked(self, transition: str) -> Function:
        """``ASM(t)``: conjunction of the output-place variables."""
        return self.encoding.cube(self.encoding.step(transition).postset,
                                  True)

    def no_predecessor_marked(self, transition: str) -> Function:
        """``NPM(t)``: conjunction of the negated input-place variables."""
        return self.encoding.cube(self.encoding.step(transition).preset,
                                  False)

    def no_successor_marked(self, transition: str) -> Function:
        """``NSM(t)``: conjunction of the negated output-place variables."""
        return self.encoding.cube(self.encoding.step(transition).postset,
                                  False)

    # ------------------------------------------------------------------
    # Cube literal mappings (the cofactors of the paper's pipeline)
    # ------------------------------------------------------------------
    def enabled_literals(self, transition: str) -> Mapping[str, bool]:
        """The ``E(t)`` cube as a read-only literal mapping (for
        cofactoring and :meth:`~repro.bdd.Function.meets`), built once."""
        cached = self._enabled_literals.get(transition)
        if cached is None:
            cached = self._enabled_literals[transition] = MappingProxyType(
                self.encoding.literals(
                    self.encoding.step(transition).preset, True))
        return cached

    def no_successor_literals(self, transition: str) -> Dict[str, bool]:
        """The ``NSM(t)`` cube as a literal dictionary (for cofactoring)."""
        return self.encoding.literals(
            self.encoding.step(transition).postset, False)

    # ------------------------------------------------------------------
    # Per-signal disjunctions
    # ------------------------------------------------------------------
    def signal_enabled(self, signal: str) -> Function:
        """``E(a)``: some transition of signal ``a`` is enabled."""
        cached = self._signal_enabled.get(signal)
        if cached is None:
            cached = self.encoding.manager.false
            for transition in self.encoding.stg.transitions_of_signal(signal):
                cached = cached | self.enabled(transition)
            self._signal_enabled[signal] = cached
        return cached

    def generic_enabled(self, signal: str, polarity: str) -> Function:
        """``E(a*)``: some transition ``a+`` (or ``a-``) is enabled."""
        key = f"{signal}{polarity}"
        cached = self._generic_enabled.get(key)
        if cached is None:
            cached = self.encoding.manager.false
            for transition in self.encoding.stg.transitions_of(signal, polarity):
                cached = cached | self.enabled(transition)
            self._generic_enabled[key] = cached
        return cached
