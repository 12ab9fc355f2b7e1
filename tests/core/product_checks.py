"""Product-based reference versions of five symbolic checks.

Each builds the product of the reachable set with the bad states and
compares it with FALSE: ``R . E(t) . p`` (safeness), ``R .
Inconsistent(a)`` (consistency), ``R . E(ti) . E(tj)`` (determinism), and
the four regions ``ER(a+)``, ``ER(a-)``, ``QR(a+)``, ``QR(a-)`` whose
cross intersections are ``CONT(a)`` (CSC) and whose contradictory states
start and end the frozen-input closures (complementary input sequences).
The checks under ``repro.core`` answer the same questions with one
``meets`` pass, with the next-state on/off sets, and from CSC's own
``CONT(a)``; these versions are their parity oracle.
"""

from repro.core.csc import SymbolicCSCResult
from repro.core.reducibility import SymbolicComplementaryResult
from repro.core.state_checks import (
    SafenessResult,
    SymbolicConsistencyResult,
    SymbolicDeterminismResult,
)
from repro.core.traversal import fixpoint


def safeness(encoding, reached, charfun):
    net = encoding.stg.net
    overflows = []
    witness = None
    for transition in net.transitions:
        preset = net.preset_of_transition(transition)
        postset = net.postset_of_transition(transition)
        overflow_places = postset - preset
        if not overflow_places:
            continue
        enabled_states = reached & charfun.enabled(transition)
        if enabled_states.is_false():
            continue
        for place in sorted(overflow_places):
            bad = enabled_states & encoding.place(place)
            if not bad.is_false():
                overflows.append((transition, place))
                if witness is None:
                    model = bad.pick_one(encoding.all_variables)
                    if model is not None:
                        witness = encoding.decode_state(model)
    return SafenessResult(not overflows, overflows, witness)


def consistency(encoding, reached, charfun):
    violating = []
    witnesses = {}
    for signal in encoding.stg.signals:
        variable = encoding.signal(signal)
        inconsistent = ((charfun.generic_enabled(signal, "+") & variable)
                        | (charfun.generic_enabled(signal, "-") & ~variable))
        bad = reached & inconsistent
        if bad.is_false():
            continue
        violating.append(signal)
        model = bad.pick_one(encoding.all_variables)
        if model is not None:
            witnesses[signal] = encoding.decode_state(model)
    return SymbolicConsistencyResult(not violating, violating, witnesses)


def _structural_effect(net, transition):
    preset = net.preset_of_transition(transition)
    postset = net.postset_of_transition(transition)
    return frozenset(preset - postset), frozenset(postset - preset)


def determinism(encoding, reached, charfun):
    stg = encoding.stg
    by_generic = {}
    for transition in stg.transitions:
        by_generic.setdefault(stg.label_of(transition).generic,
                              []).append(transition)
    violations = []
    for transitions in by_generic.values():
        for i, first in enumerate(transitions):
            for second in transitions[i + 1:]:
                both = (reached & charfun.enabled(first)
                        & charfun.enabled(second))
                if both.is_false():
                    continue
                if _structural_effect(stg.net, first) == \
                        _structural_effect(stg.net, second):
                    continue
                violations.append((first, second))
    return SymbolicDeterminismResult(not violations, violations)


def state_regions(encoding, reached, charfun, signal):
    """``(ER(a+), ER(a-), QR(a+), QR(a-))`` over the full states."""
    variable = encoding.signal(signal)
    e_plus = charfun.generic_enabled(signal, "+")
    e_minus = charfun.generic_enabled(signal, "-")
    return (reached & e_plus, reached & e_minus,
            (reached & variable) - e_minus, (reached & ~variable) - e_plus)


def contradictory_codes(encoding, reached, charfun, signal):
    """``CONT(a) = ER(a+).QR(a-) + ER(a-).QR(a+)`` over the codes."""
    places = encoding.place_variables
    er_plus, er_minus, qr_plus, qr_minus = (
        region.exist(places)
        for region in state_regions(encoding, reached, charfun, signal))
    return (er_plus & qr_minus) | (er_minus & qr_plus)


def conflict_sets(encoding, reached, charfun, signal):
    """The quiescent- and excitation-side states whose code is in
    ``CONT(a)``."""
    contradictory = contradictory_codes(encoding, reached, charfun, signal)
    er_plus, er_minus, qr_plus, qr_minus = state_regions(
        encoding, reached, charfun, signal)
    return ((qr_plus | qr_minus) & contradictory,
            (er_plus | er_minus) & contradictory)


def complementary_input_sequences(encoding, reached, image, signals):
    offending = []
    inputs = image.input_transitions()
    for signal in signals:
        quiescent, excitation = conflict_sets(encoding, reached,
                                              image.charfun, signal)
        if quiescent.is_false():
            continue
        backward = fixpoint(image, quiescent, inputs, "backward",
                            "saturation", restrict_to=reached)
        frozen = fixpoint(image, backward, inputs, "forward", "saturation",
                          restrict_to=reached)
        if not (frozen & excitation).is_false():
            offending.append(signal)
    return SymbolicComplementaryResult(not offending, offending)


def csc(encoding, reached, charfun):
    violating = []
    witnesses = {}
    for signal in encoding.stg.noninput_signals:
        conflict = contradictory_codes(encoding, reached, charfun, signal)
        if conflict.is_false():
            continue
        violating.append(signal)
        model = conflict.pick_one(encoding.signal_variables)
        if model is not None:
            code = {s: bool(model.get(encoding.signal_variable(s), False))
                    for s in encoding.stg.signals}
            witnesses[signal] = {"code": code}
    num_states = encoding.count_states(reached)
    codes = reached.exist(encoding.place_variables)
    usc = num_states == codes.sat_count(care_vars=encoding.signal_variables)
    return SymbolicCSCResult(not violating, usc, violating, witnesses)
