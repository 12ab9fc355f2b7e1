"""Witness (counter-example) trace extraction.

The property checks of :mod:`repro.core` report *states* violating a
property; for debugging a specification one usually wants a *firing
sequence* leading from the initial state to such a state.  This module
extracts a shortest one symbolically: forward breadth-first layers are
computed until the target set is hit, then a concrete path is recovered by
stepping backwards one layer at a time with the inverse transition
function.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.bdd import Function
from repro.core.encoding import SymbolicEncoding
from repro.core.image import SymbolicImage


class WitnessError(Exception):
    """Raised when no witness exists (the target set is unreachable)."""


def find_firing_sequence(image: SymbolicImage, target: Function,
                         initial: Optional[Function] = None,
                         max_depth: int = 100_000) -> List[str]:
    """A shortest firing sequence from the initial state into ``target``.

    Returns the list of fired transition names (empty when the initial
    state itself is in the target set).  Raises :class:`WitnessError` when
    the target cannot be reached within ``max_depth`` steps (for reachable
    targets the bound is never the limiting factor).
    """
    encoding = image.encoding
    start = initial if initial is not None else encoding.initial_state()
    if not (start & target).is_false():
        return []
    # Forward layers: layer[i] holds the states first reached in i steps.
    layers: List[Function] = [start]
    visited = start
    depth = 0
    while depth < max_depth:
        depth += 1
        frontier = image.image(layers[-1]) - visited
        if frontier.is_false():
            raise WitnessError("the target set is not reachable")
        layers.append(frontier)
        visited = visited | frontier
        if not (frontier & target).is_false():
            break
    else:
        raise WitnessError(f"no witness within {max_depth} steps")

    # Pick one concrete target state in the last layer and walk backwards.
    sequence: List[str] = []
    current = _pick_state(encoding, layers[-1] & target)
    for level in range(len(layers) - 1, 0, -1):
        transition, predecessor = _step_back(encoding, image, current,
                                             layers[level - 1])
        sequence.append(transition)
        current = predecessor
    sequence.reverse()
    return sequence


def _pick_state(encoding: SymbolicEncoding, states: Function) -> Function:
    """Minterm of one state of a non-empty set."""
    model = states.pick_one(encoding.all_variables)
    if model is None:
        raise WitnessError("internal error: empty state set")
    literals = {name: bool(value) for name, value in model.items()}
    return encoding.manager.cube(literals)


def _step_back(encoding: SymbolicEncoding, image: SymbolicImage,
               state: Function, previous_layer: Function
               ) -> Tuple[str, Function]:
    """Find a transition and a predecessor in ``previous_layer`` for a state."""
    for transition in encoding.stg.transitions:
        predecessors = image.fire_backward(state, transition) & previous_layer
        if not predecessors.is_false():
            return transition, _pick_state(encoding, predecessors)
    raise WitnessError("internal error: no predecessor found while "
                       "backtracking a forward layer")


def explain_state(encoding: SymbolicEncoding, state_function: Function) -> dict:
    """Decode one state of a characteristic function for display."""
    model = state_function.pick_one(encoding.all_variables)
    if model is None:
        raise WitnessError("cannot explain an empty state set")
    return encoding.decode_state(model)
