"""The fixed work around saturation is paid once, and only when used.

An all-checks run resolves each transition's forward firing steps once,
resolves backward steps only for a closure that fires backward, and
counts the reachable states once: the traversal stores the count and
USC reads it.  The persistency and fake-conflict checks fire each
ordered pair of transitions that share an input place and are enabled
together once, between them.
"""

import pytest

from repro import corpus
from repro.api import ALL, run
from repro.api.checks import run_checks
from repro.bdd import operators
from repro.core.encoding import SymbolicEncoding
from repro.core.image import SymbolicImage
from repro.core.pipeline import VerificationPipeline
from repro.petri.reachability import build_reachability_graph
from repro.petri.structure import conflict_places
from repro.stg.generators import (
    fake_conflict_d1,
    muller_pipeline,
    mutex_element,
)


@pytest.fixture
def built_steps(monkeypatch):
    """How many :class:`~repro.bdd.operators.TransferSteps` get built."""
    built = []

    class CountedSteps(operators.TransferSteps):
        __slots__ = ()

        def __init__(self, manager, resolved):
            super().__init__(manager, resolved)
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


def conflict_check_firings(stg, monkeypatch):
    """How many times the persistency and fake-conflict checks fire a
    transition, the traversal's firings not counted."""
    pipeline = VerificationPipeline(stg)
    pipeline.reached
    fired = []
    fire = SymbolicImage.fire

    def counting(self, states, transition, drop=None):
        fired.append(transition)
        return fire(self, states, transition, drop)

    monkeypatch.setattr(SymbolicImage, "fire", counting)
    run_checks(pipeline, ["persistency", "fake_conflicts"], "symbolic")
    return len(fired)


def co_enabled_pairs(net):
    """Ordered pairs of transitions sharing an input place that some
    reachable marking enables together (explicit markings, no BDDs)."""
    markings = build_reachability_graph(net).markings
    pairs = set()
    for place in conflict_places(net):
        transitions = sorted(net.postset_of_place(place))
        for fired in transitions:
            for disabled in transitions:
                if fired != disabled and any(
                        net.is_enabled(fired, marking)
                        and net.is_enabled(disabled, marking)
                        for marking in markings):
                    pairs.add((fired, disabled))
    return pairs


@pytest.mark.parametrize("build, expected", [
    (lambda: mutex_element(6), 30),
    (fake_conflict_d1, 2),
    (lambda: corpus.load("irreducible_csc"), 2),
], ids=["mutex6", "fake_conflict_d1", "irreducible_csc"])
def test_conflict_checks_fire_each_pair_once(build, expected, monkeypatch):
    stg = build()
    assert conflict_check_firings(stg, monkeypatch) == expected
    assert len(co_enabled_pairs(stg.net)) == expected


@pytest.mark.parametrize("name", corpus.names())
def test_corpus_conflict_firings_are_the_co_enabled_pairs(name,
                                                          monkeypatch):
    stg = corpus.load(name)
    assert (conflict_check_firings(stg, monkeypatch)
            == len(co_enabled_pairs(stg.net)))
