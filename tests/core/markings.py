"""Marking-set helpers of the symbolic tests: marking minterms, and the
firing cubes ``NPM(t)``, ``NSM(t)`` and ``ASM(t)`` of Section 4, which
only the tests of the paper's firing formula build (the image kernel
fires in one pass over the step table instead)."""


def marking_minterm(encoding, marking):
    """Characteristic function of one safe marking (places only)."""
    return encoding.manager.cube({encoding.place_variable(p): marking[p] > 0
                                  for p in encoding.stg.net.places})


def markings_to_function(encoding, markings):
    """Disjunction of marking minterms (the paper's ``X_M``)."""
    result = encoding.manager.false
    for marking in markings:
        result = result | marking_minterm(encoding, marking)
    return result


def no_predecessor_marked(encoding, transition):
    """``NPM(t)``: every input place of ``transition`` unmarked."""
    return encoding.cube(encoding.step(transition).preset, False)


def no_successor_marked(encoding, transition):
    """``NSM(t)``: every output place of ``transition`` unmarked."""
    return encoding.cube(encoding.step(transition).postset, False)


def all_successors_marked(encoding, transition):
    """``ASM(t)``: every output place of ``transition`` marked."""
    return encoding.cube(encoding.step(transition).postset, True)
