"""Tests of the symbolic property checks (consistency, safeness,
persistency, CSC, determinism, complementary sequences, fake conflicts)."""

import pytest

from repro.api import ALL, EngineConfig, verify
from repro.core.conflicts import check_conflict_pairs
from repro.core.csc import _check_usc, check_csc
from repro.core.encoding import SymbolicEncoding
from repro.core.image import SymbolicImage
from repro.core.reducibility import check_complementary_input_sequences
from repro.core.state_checks import check_state_cubes
from repro.core.traversal import symbolic_traversal
from repro.report import ImplementabilityClass
from repro.stg import STG, SignalKind
from repro.stg.generators import (
    asymmetric_fake_conflict_example,
    csc_resolved_example,
    csc_violation_example,
    fake_conflict_d1,
    fake_conflict_d2,
    handshake,
    inconsistent_example,
    irreducible_csc_example,
    master_read,
    muller_pipeline,
    mutex_arbitration_places,
    mutex_element,
    output_disabled_by_input,
)
from repro.stg.parser import parse_g
from tests.core import product_checks


def symbolic_setup(stg):
    encoding = SymbolicEncoding(stg)
    image = SymbolicImage(encoding)
    reached, _ = symbolic_traversal(encoding, image=image)
    return encoding, image, reached


def conflict_pairs(stg, arbitration_places=()):
    encoding, image, reached = symbolic_setup(stg)
    return check_conflict_pairs(encoding, reached, image, arbitration_places)


def enables(stg, marking, transition):
    """Net semantics, no BDDs: every preset place of ``transition`` is
    marked in ``marking``."""
    return all(marking[place]
               for place in stg.net.preset_of_transition(transition))


def enabled_at_wrong_value(stg, witness, signal):
    """The decoded state has ``signal`` at 1 with a rising transition of
    it enabled, or at 0 with a falling one."""
    value = witness["code"][signal]
    return any(enables(stg, witness["marking"], transition)
               and stg.label_of(transition).is_rising == value
               for transition in stg.transitions_of_signal(signal))


class TestConsistency:
    @pytest.mark.parametrize("factory, expected", [
        (handshake, True),
        (mutex_element, True),
        (inconsistent_example, False),
        (csc_violation_example, True),
        (lambda: muller_pipeline(4), True),
    ], ids=["handshake", "mutex", "inconsistent", "csc_viol", "pipeline4"])
    def test_verdicts(self, factory, expected):
        stg = factory()
        encoding, image, reached = symbolic_setup(stg)
        result = check_state_cubes(encoding, reached).consistency
        assert result.consistent is expected

    def test_violating_signal_and_witness(self):
        stg = inconsistent_example()
        encoding, image, reached = symbolic_setup(stg)
        result = check_state_cubes(encoding, reached).consistency
        assert result.violating_signals == ["b"]
        witness = result.witnesses["b"]
        assert witness["code"]["b"] is True  # b+ enabled while b already 1
        assert enabled_at_wrong_value(stg, witness, "b")

    def test_wrong_initial_value_detected(self):
        stg = handshake()
        stg.set_initial_value("r", True)  # r+ initially enabled while r=1
        encoding, image, reached = symbolic_setup(stg)
        result = check_state_cubes(encoding, reached).consistency
        assert not result.consistent
        assert "r" in result.violating_signals
        assert set(result.witnesses) == set(result.violating_signals)
        for signal, witness in result.witnesses.items():
            assert enabled_at_wrong_value(stg, witness, signal)


#: A four-transition ring whose one marked place holds two tokens.
TWO_TOKENS = """\
.model two_tokens
.inputs a
.outputs b
.graph
p0 a+
a+ p1
p1 b+
b+ p2
p2 a-
a- p3
p3 b-
b- p0
.marking { p0=2 }
.initial_values a=0 b=0
.end
"""


class TestSafeness:
    @pytest.mark.parametrize("factory", [
        handshake, mutex_element, lambda: muller_pipeline(4),
        lambda: master_read(2),
    ], ids=["handshake", "mutex", "pipeline4", "master_read2"])
    def test_safe_examples(self, factory):
        stg = factory()
        encoding, image, reached = symbolic_setup(stg)
        assert check_state_cubes(encoding, reached).safeness.safe

    def test_unsafe_net_detected(self):
        # Two producers feed the same place without consuming it: the second
        # firing overflows the shared place.
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
        encoding, image, reached = symbolic_setup(stg)
        result = check_state_cubes(encoding, reached).safeness
        assert not result.safe
        assert result.overflows == [("a+", "p_shared"), ("b+", "p_shared")]
        # The witness enables the first overflowing transition and
        # already marks the place it overflows.
        marking = result.witness["marking"]
        assert enables(stg, marking, "a+")
        assert marking["p_shared"] == 1

    def test_over_marked_initial_place_is_unsafe_in_both_engines(self):
        # The encoding reads p0=2 as one token; the ring itself never
        # overflows a place, so only the initial count shows the fault.
        reports = {engine: verify(parse_g(TWO_TOKENS),
                                  EngineConfig(engine=engine),
                                  checks=["safeness"])
                   for engine in ("symbolic", "explicit")}
        assert reports["symbolic"].safe is False
        assert reports["explicit"].safe is False
        verdict, = [verdict for verdict in reports["symbolic"].verdicts
                    if verdict.name == "safeness"]
        assert "p0" in verdict.details[0]
        encoding, image, reached = symbolic_setup(parse_g(TWO_TOKENS))
        result = check_state_cubes(encoding, reached).safeness
        assert result.overmarked == ["p0"]
        assert result.witness["marking"]["p0"] == 2

    @pytest.mark.parametrize("engine", ["symbolic", "explicit"])
    def test_unsafe_spec_is_not_implementable(self, engine):
        # The symbolic engine's other verdicts describe the truncated
        # 1-safe state space (4 states, consistent, CSC), so safeness
        # alone must decide the class.
        report = verify(parse_g(TWO_TOKENS), EngineConfig(engine=engine),
                        checks=ALL)
        assert report.safe is False
        assert report.classification is \
            ImplementabilityClass.NOT_IMPLEMENTABLE
        verdict, = [verdict for verdict in report.verdicts
                    if verdict.name == "safeness"]
        assert not verdict.holds
        assert "p0" in verdict.details[0]

    def test_explicit_safeness_names_the_places_and_a_marking(self):
        report = verify(parse_g(TWO_TOKENS), EngineConfig(engine="explicit"),
                        checks=["safeness"])
        verdict, = report.verdicts
        assert verdict.details == [
            "not safe: more than one token on p0, p1, p2, p3, e.g. in the "
            "reachable marking { p0=2 }"]


class TestPersistency:
    def test_marked_graphs_are_persistent(self):
        for stg in (muller_pipeline(4), master_read(2)):
            pairs = conflict_pairs(stg)
            assert pairs.signal_persistency.persistent
            assert pairs.transition_persistency.persistent

    def test_output_disabled_by_input(self):
        result = conflict_pairs(output_disabled_by_input()).signal_persistency
        assert not result.persistent
        assert ("a+", "b+") in result.violating_pairs()
        witness = result.violations[0].witness
        assert witness is not None

    def test_mutex_needs_arbitration(self):
        stg = mutex_element()
        plain = conflict_pairs(stg).signal_persistency
        assert not plain.persistent
        tolerant = conflict_pairs(
            stg, mutex_arbitration_places(stg)).signal_persistency
        assert tolerant.persistent
        assert tolerant.arbitration_skips > 0

    def test_fake_conflict_d1_signal_persistent_but_not_transition_persistent(self):
        stg = fake_conflict_d1()
        pairs = conflict_pairs(stg)
        assert pairs.signal_persistency.persistent
        transition_level = pairs.transition_persistency
        assert not transition_level.persistent
        assert ("a+", "b+/2") in transition_level.violating_pairs()

    def test_input_choice_allowed(self):
        stg = irreducible_csc_example()
        assert conflict_pairs(stg).signal_persistency.persistent

    def test_asymmetric_fake_conflict_violates_persistency(self):
        stg = asymmetric_fake_conflict_example()
        assert not conflict_pairs(stg).signal_persistency.persistent


class TestCSC:
    @pytest.mark.parametrize("factory, expect_csc, expect_usc", [
        (handshake, True, True),
        (mutex_element, True, True),
        (csc_violation_example, False, False),
        (csc_resolved_example, True, True),
        (irreducible_csc_example, False, False),
        (lambda: muller_pipeline(3), True, True),
    ], ids=["handshake", "mutex", "csc_viol", "csc_resolved", "irreducible",
            "pipeline3"])
    def test_verdicts(self, factory, expect_csc, expect_usc):
        stg = factory()
        encoding, image, reached = symbolic_setup(stg)
        result = check_csc(encoding, reached, encoding.count_states(reached),
                           image.charfun)
        assert result.csc is expect_csc
        assert result.usc is expect_usc

    def test_violating_signals_and_witness_code(self):
        stg = csc_violation_example()
        encoding, image, reached = symbolic_setup(stg)
        result = check_csc(encoding, reached, encoding.count_states(reached),
                           image.charfun)
        assert set(result.violating_signals) == {"b", "c"}
        witness = result.witnesses["b"]["code"]
        assert witness == {"a": True, "b": False, "c": False}

    def test_regions_partition_reached_set(self):
        stg = mutex_element()
        encoding, image, reached = symbolic_setup(stg)
        codes = reached.exist(encoding.place_variables)
        for signal in stg.signals:
            er_plus, er_minus, qr_plus, qr_minus = \
                product_checks.state_regions(encoding, reached,
                                             image.charfun, signal)
            assert er_plus | er_minus | qr_plus | qr_minus == reached
            places = encoding.place_variables
            assert (er_plus.exist(places) | er_minus.exist(places)
                    | qr_plus.exist(places) | qr_minus.exist(places)) == codes

    def test_usc_spec_builds_no_on_off_sets(self):
        """Under USC the check is the USC count alone: the same BDD work,
        and no ``CONT(a)`` for the complementary-sequence check."""
        def lookups(check):
            encoding, image, reached = symbolic_setup(muller_pipeline(5))
            num_states = encoding.count_states(reached)
            before = encoding.manager.cache_lookups
            result = check(encoding, reached, num_states)
            return result, encoding.manager.cache_lookups - before

        result, csc_lookups = lookups(check_csc)
        usc, usc_lookups = lookups(_check_usc)
        assert usc and result.usc and result.csc
        assert result.contradictions == {}
        assert csc_lookups == usc_lookups > 0

    def test_only_requested_signals_checked(self):
        stg = csc_violation_example()
        encoding, image, reached = symbolic_setup(stg)
        result = check_csc(encoding, reached, encoding.count_states(reached),
                           image.charfun, signals=["b"])
        assert result.violating_signals == ["b"]


class TestReducibility:
    def test_deterministic_examples(self):
        for factory in (handshake, mutex_element, csc_violation_example):
            stg = factory()
            encoding, image, reached = symbolic_setup(stg)
            assert check_state_cubes(encoding, reached).determinism.deterministic

    def test_nondeterministic_same_label_different_effect(self):
        # Two a+ transitions enabled in the same state with different
        # postsets: a real nondeterminism.
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
        encoding, image, reached = symbolic_setup(stg)
        result = check_state_cubes(encoding, reached).determinism
        assert not result.deterministic
        assert ("a+", "a+/2") in result.violating_pairs

    @staticmethod
    def complementary(stg):
        encoding, image, reached = symbolic_setup(stg)
        contradictions = check_csc(encoding, reached,
                                   encoding.count_states(reached),
                                   image.charfun).contradictions
        return check_complementary_input_sequences(encoding, reached, image,
                                                   contradictions)

    def test_csc_violation_is_complementary_free(self):
        assert self.complementary(csc_violation_example()).free

    def test_irreducible_example_detected(self):
        result = self.complementary(irreducible_csc_example())
        assert not result.free
        assert result.offending_signals == ["o"]

    def test_csc_clean_examples_trivially_free(self):
        for factory in (handshake, mutex_element, lambda: muller_pipeline(3)):
            assert self.complementary(factory()).free


class TestFakeConflicts:
    def test_d1_symmetric_fake(self):
        stg = fake_conflict_d1()
        result = conflict_pairs(stg).conflicts
        assert len(result.symmetric_fake) == 1
        assert not result.fake_free(stg)

    def test_d2_no_conflicts(self):
        stg = fake_conflict_d2()
        result = conflict_pairs(stg).conflicts
        assert result.classifications == []
        assert result.fake_free(stg)

    def test_asymmetric_fake_conflict(self):
        stg = asymmetric_fake_conflict_example()
        result = conflict_pairs(stg).conflicts
        assert len(result.asymmetric_fake) == 1
        assert not result.fake_free(stg)

    def test_mutex_real_conflict_is_fake_free(self):
        stg = mutex_element()
        result = conflict_pairs(stg).conflicts
        assert result.fake_free(stg)
        real = [c for c in result.classifications
                if c.observed and c.first_disables_second_signal
                and c.second_disables_first_signal]
        assert {(c.first, c.second) for c in real} == {("g1+", "g2+")}
