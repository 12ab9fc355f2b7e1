"""Complex-gate and generalised C-element covers.

Two implementation styles are derived from the next-state functions:

* **complex gate** -- a single atomic gate computing the next-state
  function of the signal; the cover is an irredundant sum of products
  taken in the interval ``[on_set, on_set + dont_care]``;
* **generalised C-element (gC)** -- separate *set* and *reset* networks
  covering the excitation regions ``ER(a+)`` / ``ER(a-)``, with the
  storage element keeping the value in the quiescent regions.

Both are textbook constructions for speed-independent circuits on top of a
CSC-satisfying state graph (Chu 1987; Kishinevsky et al. 1993 -- the
paper's references [2] and [3]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.bdd import Function
from repro.bdd.cover import cover_function, cube_to_string, isop
from repro.core.charfun import CharacteristicFunctions
from repro.core.encoding import SymbolicEncoding
from repro.synthesis.functions import (
    NextStateFunction,
    SynthesisError,
    derive_next_state_functions,
)

Cube = Dict[str, bool]


def _strip_prefix(cube: Cube, encoding: SymbolicEncoding) -> Cube:
    """Map BDD variable names back to signal names in a cube."""
    result = {}
    for variable, value in cube.items():
        if variable.startswith("s:"):
            result[variable[2:]] = value
        else:
            result[variable] = value
    return result


def _render_cover(cubes: List[Cube]) -> str:
    if not cubes:
        return "0"
    return " + ".join(cube_to_string(cube) for cube in cubes)


@dataclass
class ComplexGate:
    """A single-gate implementation of one non-input signal."""

    signal: str
    cover: List[Cube]
    cover_function: Function
    equation: str

    def __str__(self) -> str:
        return f"{self.signal} = {self.equation}"


@dataclass
class GeneralizedCElement:
    """A set/reset (gC) implementation of one non-input signal."""

    signal: str
    set_cover: List[Cube]
    reset_cover: List[Cube]
    set_function: Function
    reset_function: Function
    set_equation: str
    reset_equation: str

    def __str__(self) -> str:
        return (f"{self.signal}: set = {self.set_equation}; "
                f"reset = {self.reset_equation}")


def synthesize_complex_gate(encoding: SymbolicEncoding,
                            function: NextStateFunction) -> ComplexGate:
    """Extract a complex-gate cover from one next-state function."""
    if not function.is_well_defined:
        raise SynthesisError(
            f"signal {function.signal!r} violates CSC; cannot synthesise")
    upper = function.on_set | function.dont_care
    cubes = isop(function.on_set, upper)
    implementation = cover_function(function.on_set, cubes)
    named = [_strip_prefix(cube, encoding) for cube in cubes]
    return ComplexGate(
        signal=function.signal,
        cover=named,
        cover_function=implementation,
        equation=_render_cover(named),
    )


def synthesize_generalized_c_element(encoding: SymbolicEncoding,
                                     function: NextStateFunction
                                     ) -> GeneralizedCElement:
    """Extract set/reset covers (gC style) from one next-state function."""
    if not function.is_well_defined:
        raise SynthesisError(
            f"signal {function.signal!r} violates CSC; cannot synthesise")
    dont_care = function.dont_care
    set_upper = function.excitation_on | dont_care | function.on_set
    reset_upper = function.excitation_off | dont_care | function.off_set
    set_cubes = isop(function.excitation_on, set_upper)
    reset_cubes = isop(function.excitation_off, reset_upper)
    return GeneralizedCElement(
        signal=function.signal,
        set_cover=[_strip_prefix(c, encoding) for c in set_cubes],
        reset_cover=[_strip_prefix(c, encoding) for c in reset_cubes],
        set_function=cover_function(function.excitation_on, set_cubes),
        reset_function=cover_function(function.excitation_off, reset_cubes),
        set_equation=_render_cover(
            [_strip_prefix(c, encoding) for c in set_cubes]),
        reset_equation=_render_cover(
            [_strip_prefix(c, encoding) for c in reset_cubes]),
    )


def synthesize_complex_gates(encoding: SymbolicEncoding, reached: Function,
                             charfun: Optional[CharacteristicFunctions] = None
                             ) -> Dict[str, ComplexGate]:
    """Complex-gate implementations for every non-input signal."""
    from repro import obs

    with obs.span("synthesis", manager=encoding.manager,
                  style="complex-gate") as span:
        functions = derive_next_state_functions(encoding, reached, charfun)
        gates = {signal: synthesize_complex_gate(encoding, function)
                 for signal, function in functions.items()}
        span.annotate(gates=len(gates))
    return gates


def synthesize_generalized_c_elements(encoding: SymbolicEncoding,
                                      reached: Function,
                                      charfun: Optional[CharacteristicFunctions] = None
                                      ) -> Dict[str, GeneralizedCElement]:
    """gC implementations for every non-input signal."""
    from repro import obs

    with obs.span("synthesis", manager=encoding.manager,
                  style="gc-element") as span:
        functions = derive_next_state_functions(encoding, reached, charfun)
        gates = {signal: synthesize_generalized_c_element(encoding, function)
                 for signal, function in functions.items()}
        span.annotate(gates=len(gates))
    return gates
