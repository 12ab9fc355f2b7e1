"""The fixed work around saturation is paid once, and only when used.

An all-checks run resolves each transition's forward firing steps once,
resolves backward steps only for a closure that fires backward, and
counts the reachable states once: the traversal stores the count and
USC reads it.  The persistency and fake-conflict checks fire each
ordered pair of transitions that share an input place and are enabled
together once, between them.  Each characteristic function is built
once per encoding, however many checks and synthesis calls read it.
"""

from collections import Counter

import pytest

from repro import corpus
from repro.api import ALL, run
from repro.api.checks import run_checks
from repro.bdd import Function, operators
from repro.bdd.analysis import support
from repro.core.csc import check_csc
from repro.core.deadlock import check_deadlock_freedom
from repro.core.encoding import SymbolicEncoding
from repro.core.image import SymbolicImage
from repro.core.pipeline import VerificationPipeline
from repro.petri.reachability import build_reachability_graph
from repro.petri.structure import conflict_places
from repro.stg.generators import (
    csc_violation_example,
    fake_conflict_d1,
    irreducible_csc_example,
    muller_pipeline,
    mutex_element,
)
from repro.synthesis import derive_next_state_functions


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


@pytest.fixture
def built_functions(monkeypatch):
    """The characteristic functions built from now on: each ``E(t)``
    cube as its ``(preset ids, True)`` and each next-state function
    ``N(a) = a ? not E(a-) : E(a+)`` as the support of its ``a``."""
    built = []
    cube, ite = SymbolicEncoding.cube, Function.ite

    def building_cube(self, variables, value):
        variables = tuple(variables)
        built.append((variables, value))
        return cube(self, variables, value)

    def building_ite(self, then_f, else_f):
        built.append(tuple(support(self)))
        return ite(self, then_f, else_f)

    monkeypatch.setattr(SymbolicEncoding, "cube", building_cube)
    monkeypatch.setattr(Function, "ite", building_ite)
    return built


def assert_built_once(encoding, built):
    """No function was built more often than there are transitions it
    stands for (two transitions with one preset share their cube)."""
    needed = Counter((step.preset, True) for step in encoding.steps.values())
    assert built
    for key, times in Counter(built).items():
        assert times <= needed.get(key, 1), key


def test_an_all_checks_run_builds_each_function_once(built_functions):
    outcome = run(irreducible_csc_example(), checks=ALL)
    assert outcome.report.csc is False
    assert outcome.report.complementary_free is False
    encoding = outcome.pipeline.encoding
    assert_built_once(encoding, built_functions)
    # CSC builds N(a) per non-input signal; the complementary-sequence
    # check starts from the same N(a) of each violator.
    assert [key for key in built_functions if isinstance(key[0], str)] == [
        (encoding.signal_variable(signal),)
        for signal in encoding.stg.noninput_signals]


def test_checks_and_synthesis_on_one_encoding_build_no_function_twice(
        built_functions):
    pipeline = VerificationPipeline(csc_violation_example())
    encoding, reached = pipeline.encoding, pipeline.reached
    assert not check_csc(encoding, reached,
                         pipeline.traversal_stats.num_states).csc
    check_deadlock_freedom(encoding, reached)
    derive_next_state_functions(encoding, reached, require_csc=False)
    assert_built_once(encoding, built_functions)
