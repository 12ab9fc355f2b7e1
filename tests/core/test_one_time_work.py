"""The fixed work around saturation is paid once, and only when used.

An all-checks run resolves each transition's forward firing steps once,
resolves backward steps only for a closure that fires backward, and
counts the reachable states once: the traversal stores the count and
USC reads it.
"""

import pytest

from repro.api import ALL, run
from repro.bdd import operators
from repro.core.encoding import SymbolicEncoding
from repro.stg.generators import muller_pipeline, mutex_element


@pytest.fixture
def built_steps(monkeypatch):
    """How many :class:`~repro.bdd.operators.TransferSteps` get built."""
    built = []

    class CountedSteps(operators.TransferSteps):
        __slots__ = ()

        def __init__(self, manager, steps):
            super().__init__(manager, steps)
            built.append(self)

    monkeypatch.setattr(operators, "TransferSteps", CountedSteps)
    return built


@pytest.fixture
def state_counts(monkeypatch):
    """How many times a reachable set is counted."""
    counted = []
    count_states = SymbolicEncoding.count_states

    def counting(self, states):
        counted.append(states)
        return count_states(self, states)

    monkeypatch.setattr(SymbolicEncoding, "count_states", counting)
    return counted


def test_live_marked_graph_builds_no_backward_steps(built_steps,
                                                    state_counts):
    stg = muller_pipeline(12)
    outcome = run(stg, checks=ALL)
    assert outcome.report.reversible and outcome.report.usc
    # One forward resolution per transition and nothing else: a live
    # marked graph runs no closure, so nothing fires backward.
    assert len(built_steps) == len(stg.transitions)
    assert len(state_counts) == 1


def test_reversibility_closure_still_builds_backward_steps(built_steps):
    stg = mutex_element(6)
    outcome = run(stg, checks=ALL)
    assert outcome.report.reversible
    assert len(built_steps) == 2 * len(stg.transitions)
