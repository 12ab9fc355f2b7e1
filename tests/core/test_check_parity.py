"""The ``meets``-based and next-state-based checks equal the product-based
reference (:mod:`tests.core.product_checks`) field for field: verdicts,
overflow lists, violating signals and pairs, and every witness state or
code.  For every CSC violator, ``CONT(a)`` and the complementary-sequence
check's start set are the oracle's BDD nodes, its target set inside
``R`` is the oracle's excitation side, and the check run from CSC's
``CONT(a)`` gives the oracle's verdict over every non-input signal.
Consistency, safeness and determinism share one walk over ``R``, so each
of their checks run alone reports what an all-checks run reports."""

import pytest

from repro import corpus
from repro.api import ALL, verify
from repro.core.csc import check_csc
from repro.core.pipeline import VerificationPipeline
from repro.core.reducibility import (
    check_complementary_input_sequences,
    excited_conflicts,
    quiescent_conflicts,
)
from repro.core.state_checks import check_state_cubes
from repro.stg import STG, SignalKind
from repro.stg.generators import (
    csc_violation_example,
    handshake,
    inconsistent_example,
    irreducible_csc_example,
    master_read,
    muller_pipeline,
)
from tests.core import product_checks


def unsafe_example():
    """Two producers feed one place without consuming it."""
    stg = STG("unsafe")
    stg.add_signal("a", SignalKind.INPUT, initial_value=False)
    stg.add_signal("b", SignalKind.INPUT, initial_value=False)
    stg.add_place("p_a", tokens=1)
    stg.add_place("p_b", tokens=1)
    stg.add_place("p_shared")
    stg.ensure_transition("a+")
    stg.ensure_transition("b+")
    stg.add_arc("p_a", "a+")
    stg.add_arc("p_b", "b+")
    stg.add_arc("a+", "p_shared")
    stg.add_arc("b+", "p_shared")
    return stg


def nondeterministic_example():
    """Two ``a+`` transitions enabled together, with different postsets."""
    stg = STG("nondet")
    stg.add_signal("a", SignalKind.INPUT, initial_value=False)
    stg.add_signal("o", SignalKind.OUTPUT, initial_value=False)
    stg.add_place("p0", tokens=1)
    stg.ensure_transition("a+")
    stg.ensure_transition("a+/2")
    stg.add_arc("p0", "a+")
    stg.add_arc("p0", "a+/2")
    stg.connect("a+", "o+")
    stg.connect("a+/2", "a-")
    return stg


def inconsistent_csc_example():
    """An inconsistent CSC violator.  After ``o+`` and ``a+``, ``o+/2`` is
    enabled while ``o = 1``; ``a+/2`` then ``o+/3`` reach the same code
    with ``o-`` enabled.  The first state is quiescent by its code but
    excited by ``E(o+)``, so the excitation-side conflict set holds it
    only in ``E`` form, not as ``o xor N(o)``."""
    stg = STG("inconsistent_csc")
    stg.add_signal("a", SignalKind.INPUT, initial_value=False)
    stg.add_signal("o", SignalKind.OUTPUT, initial_value=False)
    stg.add_place("p0", tokens=1)
    stg.ensure_transition("o+")
    stg.ensure_transition("a+/2")
    stg.add_arc("p0", "o+")
    stg.add_arc("p0", "a+/2")
    stg.connect("o+", "a+")
    stg.connect("a+", "o+/2")
    stg.connect("a+/2", "o+/3")
    stg.connect("o+/3", "o-")
    return stg


def unsafe_inconsistent_nondeterministic():
    """Fails consistency, safeness and determinism at once: ``unsafe``'s
    two producers, plus ``a+/2``, enabled with ``a+`` but with another
    effect, and ``a+/3``, which ``a+``'s output place enables while ``a
    = 1``."""
    stg = unsafe_example()
    stg.add_place("p_other")
    stg.ensure_transition("a+/2")
    stg.ensure_transition("a+/3")
    stg.add_arc("p_a", "a+/2")
    stg.add_arc("a+/2", "p_other")
    stg.add_arc("p_shared", "a+/3")
    return stg


def wrong_initial_value():
    stg = handshake()
    stg.set_initial_value("r", True)  # r+ initially enabled while r=1
    return stg


FIXTURES = {
    "unsafe": unsafe_example,
    "unsafe_inconsistent_nondeterministic":
        unsafe_inconsistent_nondeterministic,
    "inconsistent": inconsistent_example,
    "inconsistent_csc": inconsistent_csc_example,
    "wrong_initial_value": wrong_initial_value,
    "nondeterministic": nondeterministic_example,
    "csc_violation": csc_violation_example,
    "irreducible_csc": irreducible_csc_example,
    "muller_pipeline_5": lambda: muller_pipeline(5),
    "master_read_3": lambda: master_read(3),
}
FAMILY_INSTANCES = [("random_ring", scale) for scale in (1, 2, 3, 7, 11)] + [
    ("random_parallel", scale) for scale in (1, 2, 3, 5)]


def assert_parity(stg):
    pipeline = VerificationPipeline(stg)
    encoding, reached = pipeline.encoding, pipeline.reached
    state_checks = check_state_cubes(encoding, reached)
    assert state_checks.safeness == \
        product_checks.safeness(encoding, reached)
    assert state_checks.consistency == \
        product_checks.consistency(encoding, reached)
    assert state_checks.determinism == \
        product_checks.determinism(encoding, reached)
    csc = check_csc(encoding, reached, pipeline.traversal_stats.num_states)
    assert csc == product_checks.csc(encoding, reached)
    assert list(csc.contradictions) == csc.violating_signals
    for signal, contradictory in csc.contradictions.items():
        assert contradictory == product_checks.contradictory_codes(
            encoding, reached, signal)
        quiescent, excitation = product_checks.conflict_sets(
            encoding, reached, signal)
        assert quiescent_conflicts(encoding, reached, signal,
                                   contradictory) == quiescent
        # The target is not bounded by R; inside R it is the oracle's
        # excitation side.
        assert (reached & excited_conflicts(encoding, signal,
                                            contradictory)) == excitation
    # Only a CSC violator can have complementary input sequences.
    assert check_complementary_input_sequences(
        pipeline.image, reached, csc.contradictions) == \
        product_checks.complementary_input_sequences(
            encoding, reached, pipeline.image, stg.noninput_signals)


@pytest.mark.parametrize("name", corpus.names())
def test_corpus_entry(name):
    assert_parity(corpus.load(name))


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture(name):
    assert_parity(FIXTURES[name]())


@pytest.mark.parametrize("family, scale", FAMILY_INSTANCES,
                         ids=[f"{f}@{s}" for f, s in FAMILY_INSTANCES])
def test_family_instance(family, scale):
    stg, _ = corpus.family(family).instantiate(scale)
    assert_parity(stg)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_state_checks_do_not_depend_on_which_check_asks(name):
    """Each check that reads the shared walk, run alone, reports the
    verdicts and details of the all-checks run."""
    everything = verify(FIXTURES[name](), checks=ALL).verdicts
    for check in ("consistency", "safeness", "reducibility"):
        alone = verify(FIXTURES[name](), checks=[check]).verdicts
        names = {verdict.name for verdict in alone}
        assert alone == [verdict for verdict in everything
                         if verdict.name in names]


def test_fixtures_reach_every_failing_path():
    """The fixtures above fail each rewritten check at least once."""
    pipelines = {name: VerificationPipeline(factory())
                 for name, factory in FIXTURES.items()}
    assert not pipelines["unsafe"].safeness().safe
    every_check_fails = pipelines["unsafe_inconsistent_nondeterministic"]
    assert not every_check_fails.consistency().consistent
    assert not every_check_fails.safeness().safe
    assert not every_check_fails.determinism().deterministic
    assert not pipelines["inconsistent"].consistency().consistent
    assert not pipelines["wrong_initial_value"].consistency().consistent
    assert not pipelines["nondeterministic"].determinism().deterministic
    assert not pipelines["csc_violation"].csc().csc
    assert not pipelines["irreducible_csc"].complementary_inputs().free
    assert not pipelines["inconsistent_csc"].consistency().consistent
    assert not pipelines["inconsistent_csc"].complementary_inputs().free
