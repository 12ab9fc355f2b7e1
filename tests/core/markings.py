"""Marking-set helpers of the symbolic tests."""


def markings_to_function(encoding, markings):
    """Disjunction of marking minterms (the paper's ``X_M``)."""
    result = encoding.manager.false
    for marking in markings:
        result = result | encoding.marking_minterm(marking)
    return result
