"""Tests for the explicit property checks: consistency, persistency, CSC,
reducibility and fake conflicts, exercised on the paper's examples."""

import pytest

from repro.sg import build_state_graph
from repro.sg.consistency import check_consistency
from repro.sg.csc import check_csc, check_csc_by_regions, csc_conflicts_by_regions
from repro.sg.fake_conflicts import classify_conflicts
from repro.sg.persistency import check_signal_persistency
from repro.sg.reducibility import (
    check_commutativity,
    check_complementary_input_sequences,
    check_determinism,
    check_reducibility,
)
from repro.sg.regions import compute_regions
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


UNBOUNDED_G = """\
.model unbounded
.inputs a
.outputs b
.graph
a+ p1 p2
p1 a-
a- a+
p2 b+
b+ b-
b- p3
.marking { <a-,a+> }
.initial_values a=0 b=0
.end
"""


def graph_of(stg):
    return build_state_graph(stg).graph


def signal_pairs(result):
    """The ``(fired, disabled)`` signal pairs of a persistency result."""
    return {(v.fired_signal, v.disabled_signal) for v in result.violations}


class TestConsistency:
    def test_handshake_consistent(self):
        stg = handshake()
        assert check_consistency(graph_of(stg), stg).consistent

    def test_inconsistent_example_detected(self):
        stg = inconsistent_example()
        result = check_consistency(graph_of(stg), stg)
        assert not result.consistent
        assert "b" in result.violating_signals()

    @pytest.mark.parametrize("factory", [
        mutex_element, csc_violation_example, irreducible_csc_example,
        lambda: muller_pipeline(3), lambda: master_read(2),
    ], ids=["mutex", "csc_viol", "irreducible", "pipeline3", "master_read2"])
    def test_other_examples_consistent(self, factory):
        stg = factory()
        assert check_consistency(graph_of(stg), stg).consistent


class TestPersistency:
    def test_handshake_persistent(self):
        stg = handshake()
        assert check_signal_persistency(graph_of(stg), stg).persistent

    def test_marked_graphs_persistent(self):
        for stg in (muller_pipeline(3), master_read(2)):
            assert check_signal_persistency(graph_of(stg), stg).persistent

    def test_output_disabled_by_input_detected(self):
        stg = output_disabled_by_input()
        result = check_signal_persistency(graph_of(stg), stg)
        assert not result.persistent
        assert ("a", "b") in signal_pairs(result)

    def test_input_choice_is_allowed(self):
        stg = irreducible_csc_example()
        assert check_signal_persistency(graph_of(stg), stg).persistent

    def test_mutex_violates_persistency_without_arbitration(self):
        stg = mutex_element()
        result = check_signal_persistency(graph_of(stg), stg)
        assert not result.persistent
        assert ("g1", "g2") in signal_pairs(result)

    def test_mutex_persistent_with_declared_arbitration(self):
        stg = mutex_element()
        result = check_signal_persistency(
            graph_of(stg), stg,
            arbitration_places=mutex_arbitration_places(stg))
        assert result.persistent
        assert result.arbitration_skips > 0

    def test_fake_conflict_d1_signal_persistent(self):
        # Transition-level conflicts exist but no signal is ever disabled.
        stg = fake_conflict_d1()
        assert check_signal_persistency(graph_of(stg), stg).persistent

    def test_asymmetric_fake_conflict_not_persistent(self):
        stg = asymmetric_fake_conflict_example()
        result = check_signal_persistency(graph_of(stg), stg)
        assert not result.persistent


class TestRegions:
    def test_handshake_regions_partition(self):
        stg = handshake()
        graph = graph_of(stg)
        regions = compute_regions(graph, stg, "a")
        # 4 states: one in each region of signal a.
        assert len(regions.er_plus) == 1
        assert len(regions.er_minus) == 1
        assert len(regions.qr_plus) == 1
        assert len(regions.qr_minus) == 1

    def test_regions_cover_all_states(self):
        stg = mutex_element()
        graph = graph_of(stg)
        for signal in stg.signals:
            regions = compute_regions(graph, stg, signal)
            covered = (set(regions.er_plus) | set(regions.er_minus)
                       | set(regions.qr_plus) | set(regions.qr_minus))
            assert covered == set(graph.states)

    def test_excitation_and_quiescent_disjoint_per_polarity(self):
        stg = muller_pipeline(2)
        graph = graph_of(stg)
        for signal in stg.signals:
            regions = compute_regions(graph, stg, signal)
            assert not (set(regions.er_plus) & set(regions.qr_minus))
            assert not (set(regions.er_minus) & set(regions.qr_plus))


class TestCSC:
    @pytest.mark.parametrize("factory, expect_csc", [
        (handshake, True),
        (mutex_element, True),
        (csc_violation_example, False),
        (csc_resolved_example, True),
        (irreducible_csc_example, False),
        (lambda: muller_pipeline(3), True),
        (lambda: master_read(2), True),
    ], ids=["handshake", "mutex", "csc_viol", "csc_resolved", "irreducible",
            "pipeline3", "master_read2"])
    def test_csc_verdicts(self, factory, expect_csc):
        stg = factory()
        result = check_csc(graph_of(stg), stg)
        assert result.csc is expect_csc

    def test_csc_violation_identifies_signals(self):
        stg = csc_violation_example()
        result = check_csc(graph_of(stg), stg)
        assert set(result.conflicting_signals()) == {"b", "c"}

    def test_usc_stricter_than_csc(self):
        # The mutex element: markings determine codes uniquely here, so both
        # hold; the resolved CSC example also satisfies USC.
        stg = csc_resolved_example()
        result = check_csc(graph_of(stg), stg)
        assert result.usc and result.csc

    def test_region_formulation_agrees_with_pairwise(self):
        for factory in (handshake, mutex_element, csc_violation_example,
                        csc_resolved_example, irreducible_csc_example):
            stg = factory()
            graph = graph_of(stg)
            pairwise = check_csc(graph, stg)
            by_regions = check_csc_by_regions(graph, stg)
            region_csc = all(not codes for codes in by_regions.values())
            assert region_csc == pairwise.csc, stg.name

    def test_region_conflict_codes_for_violation(self):
        stg = csc_violation_example()
        graph = graph_of(stg)
        codes_b = csc_conflicts_by_regions(graph, stg, "b")
        # Code (a=1, b=0, c=0) is both an excitation state of b+ and a
        # quiescent state of b.
        assert codes_b == {"100"}


class TestReducibility:
    def test_deterministic_examples(self):
        for factory in (handshake, mutex_element, csc_violation_example):
            stg = factory()
            assert check_determinism(graph_of(stg), stg).deterministic

    def test_commutative_examples(self):
        for factory in (handshake, mutex_element, fake_conflict_d2,
                        lambda: muller_pipeline(3)):
            stg = factory()
            assert check_commutativity(graph_of(stg), stg).commutative

    def test_fake_conflict_d1_is_commutative(self):
        # D1's diamonds close through different transition occurrences.
        stg = fake_conflict_d1()
        assert check_commutativity(graph_of(stg), stg).commutative

    def test_csc_violation_is_reducible(self):
        stg = csc_violation_example()
        result = check_reducibility(graph_of(stg), stg)
        assert (result.deterministic and result.commutative
                and result.complementary_free)

    def test_irreducible_example_detected(self):
        stg = irreducible_csc_example()
        result = check_reducibility(graph_of(stg), stg)
        assert not (result.deterministic and result.commutative
                    and result.complementary_free)
        assert result.offending_signals == ["o"]

    def test_complementary_check_ignores_csc_clean_signals(self):
        stg = handshake()
        result = check_complementary_input_sequences(graph_of(stg), stg)
        assert result.free


class TestFakeConflicts:
    def test_d1_has_symmetric_fake_conflict(self):
        stg = fake_conflict_d1()
        result = classify_conflicts(graph_of(stg), stg)
        assert len(result.symmetric_fake) == 1
        assert not result.fake_free(stg)

    def test_d2_has_no_conflicts(self):
        stg = fake_conflict_d2()
        result = classify_conflicts(graph_of(stg), stg)
        assert result.classifications == []
        assert result.fake_free(stg)

    def test_asymmetric_fake_conflict_detected(self):
        stg = asymmetric_fake_conflict_example()
        result = classify_conflicts(graph_of(stg), stg)
        assert len(result.asymmetric_fake) == 1
        assert not result.fake_free(stg)

    def test_input_order_choice_is_symmetric_fake(self):
        # In the irreducible example each branch fires both inputs, so the
        # conflicting entry transitions never disable the other *signal*:
        # the conflict is symmetric fake, and the specification is rejected
        # by the fake-freedom well-formedness check (Section 3.5) -- which
        # is consistent with it not being I/O-implementable.
        stg = irreducible_csc_example()
        result = classify_conflicts(graph_of(stg), stg)
        assert len(result.classifications) == 1
        assert result.classifications[0].is_fake_symmetric
        assert not result.fake_free(stg)

    def test_mutex_grant_conflict_is_real(self):
        stg = mutex_element()
        result = classify_conflicts(graph_of(stg), stg)
        real_pairs = {(c.first, c.second) for c in result.classifications
                      if c.observed and c.first_disables_second_signal
                      and c.second_disables_first_signal}
        assert ("g1+", "g2+") in real_pairs

    def test_marked_graph_has_no_conflicts(self):
        stg = muller_pipeline(3)
        assert classify_conflicts(graph_of(stg), stg).classifications == []

    def test_explicit_engine_stays_within_the_state_budget(self):
        # p3 collects a token per cycle: the net is unbounded, and the
        # classification must observe only the budgeted state graph.
        from repro.api import EngineConfig, verify

        stg = parse_g(UNBOUNDED_G)
        report = verify(stg, EngineConfig(engine="explicit", max_states=200),
                        checks=["fake_conflicts"])
        assert report.fake_free

    def test_truncated_graph_classifies_only_the_explored_markings(self):
        # The grants are enabled together only after both requests: a
        # graph cut at the initial state never observes the conflict.
        stg = mutex_element()
        truncated = build_state_graph(stg, max_states=1)
        assert truncated.truncated
        [cut] = classify_conflicts(truncated.graph, stg).classifications
        assert (cut.first, cut.second) == ("g1+", "g2+")
        assert not cut.observed
        [full] = classify_conflicts(graph_of(stg), stg).classifications
        assert full.observed

    @pytest.mark.parametrize("factory", [
        fake_conflict_d1, fake_conflict_d2, asymmetric_fake_conflict_example,
        irreducible_csc_example, mutex_element, lambda: muller_pipeline(3),
    ], ids=["d1", "d2", "asymmetric", "irreducible_csc", "mutex",
            "muller_pipeline_3"])
    def test_classification_matches_the_symbolic_one(self, factory):
        from repro.core.pipeline import VerificationPipeline

        def booleans(result):
            return {(c.first, c.second):
                    (c.observed, c.first_disables_second_signal,
                     c.second_disables_first_signal)
                    for c in result.classifications}

        stg = factory()
        explicit = classify_conflicts(graph_of(stg), stg)
        symbolic = VerificationPipeline(stg).conflicts()
        assert booleans(explicit) == booleans(symbolic)
        assert explicit.fake_free(stg) == symbolic.fake_free(stg)
