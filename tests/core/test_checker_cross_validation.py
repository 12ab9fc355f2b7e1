"""Cross-validation: the symbolic checker must agree with the explicit one.

This is the central correctness argument of the reproduction: on every
specification small enough to enumerate, the BDD-based engine and the
explicit state-graph engine must return identical verdicts for every
property and the same reachable-state count.
"""

import pytest

from repro.api import EngineConfig, verify
from repro.report import ImplementabilityClass
from repro.stg.generators import (
    FIXED_EXAMPLES,
    master_read,
    muller_pipeline,
    mutex_arbitration_places,
    mutex_element,
    parallel_handshakes,
)

CROSS_VALIDATION_CASES = [
    ("handshake", lambda: FIXED_EXAMPLES["handshake"]()),
    ("mutex_element", lambda: FIXED_EXAMPLES["mutex_element"]()),
    ("inconsistent", lambda: FIXED_EXAMPLES["inconsistent"]()),
    ("output_disabled_by_input",
     lambda: FIXED_EXAMPLES["output_disabled_by_input"]()),
    ("csc_violation", lambda: FIXED_EXAMPLES["csc_violation"]()),
    ("csc_resolved", lambda: FIXED_EXAMPLES["csc_resolved"]()),
    ("irreducible_csc", lambda: FIXED_EXAMPLES["irreducible_csc"]()),
    ("fake_conflict_d1", lambda: FIXED_EXAMPLES["fake_conflict_d1"]()),
    ("fake_conflict_d2", lambda: FIXED_EXAMPLES["fake_conflict_d2"]()),
    ("asymmetric_fake_conflict",
     lambda: FIXED_EXAMPLES["asymmetric_fake_conflict"]()),
    ("muller_pipeline_4", lambda: muller_pipeline(4)),
    ("master_read_2", lambda: master_read(2)),
    ("parallel_handshakes_3", lambda: parallel_handshakes(3)),
    ("mutex_3", lambda: mutex_element(3)),
]

# Fields compared on every specification; the coding-related fields are
# only compared on consistent specifications because the state graph of an
# inconsistent STG is not well defined (the explicit builder keeps firing
# through the violation while the symbolic transition function drops the
# offending successors, as in the paper).
ALWAYS_COMPARED_FIELDS = [
    "consistent",
    "output_persistent",
    "fake_free",
]
CONSISTENT_ONLY_FIELDS = [
    "csc",
    "usc",
    "deterministic",
    "complementary_free",
]


def symbolic_and_explicit(stg):
    return verify(stg), verify(stg, EngineConfig(engine="explicit"))


@pytest.mark.parametrize("name, factory", CROSS_VALIDATION_CASES,
                         ids=[name for name, _ in CROSS_VALIDATION_CASES])
class TestSymbolicAgreesWithExplicit:
    def test_property_verdicts_agree(self, name, factory):
        symbolic, explicit = symbolic_and_explicit(factory())
        for field in ALWAYS_COMPARED_FIELDS:
            assert getattr(symbolic, field) == getattr(explicit, field), field
        if symbolic.consistent:
            for field in CONSISTENT_ONLY_FIELDS:
                assert getattr(symbolic, field) == getattr(explicit, field), field

    def test_state_counts_agree_for_consistent_specs(self, name, factory):
        symbolic, explicit = symbolic_and_explicit(factory())
        if symbolic.consistent:
            assert symbolic.num_states == explicit.num_states

    def test_classification_agrees(self, name, factory):
        symbolic, explicit = symbolic_and_explicit(factory())
        assert symbolic.classification == explicit.classification

    def test_commutativity_agrees_when_symbolic_decides(self, name, factory):
        symbolic, explicit = symbolic_and_explicit(factory())
        if symbolic.commutative is not None:
            assert symbolic.commutative == explicit.commutative


class TestSymbolicReport:
    def test_report_metadata(self):
        report = verify(muller_pipeline(3))
        assert report.method == "symbolic"
        assert report.num_states == 16
        assert report.bdd_peak_nodes >= report.bdd_final_nodes
        assert report.bdd_variables == len(muller_pipeline(3).places) + 4
        assert set(report.timings) == {"T+C", "NI-p", "CSC"}

    def test_classifications(self):
        assert verify(handshake_factory()) \
            .classification is ImplementabilityClass.GATE
        assert verify(FIXED_EXAMPLES["csc_violation"]()) \
            .classification is ImplementabilityClass.IO
        assert verify(FIXED_EXAMPLES["irreducible_csc"]()) \
            .classification is ImplementabilityClass.SI
        assert verify(FIXED_EXAMPLES["inconsistent"]()) \
            .classification is ImplementabilityClass.NOT_IMPLEMENTABLE

    def test_mutex_with_arbitration(self):
        stg = mutex_element()
        report = verify(stg, EngineConfig(
            arbitration_places=tuple(mutex_arbitration_places(stg))))
        assert report.output_persistent
        assert report.classification is ImplementabilityClass.GATE

    def test_ordering_strategies_do_not_change_verdicts(self):
        for ordering in ("force", "structural", "declaration", "signals_first"):
            report = verify(muller_pipeline(3),
                            EngineConfig(ordering=ordering))
            assert report.num_states == 16
            assert report.classification is ImplementabilityClass.GATE

    def test_traversal_strategy_option(self):
        report = verify(muller_pipeline(3),
                        EngineConfig(traversal_strategy="frontier"))
        assert report.num_states == 16

    def test_initial_values_override(self):
        stg = FIXED_EXAMPLES["handshake"]()
        stg._initial_values.clear()
        report = verify(stg, EngineConfig(
            initial_values={"r": False, "a": False}))
        assert report.consistent

    def test_summary_rendering(self):
        text = verify(muller_pipeline(2)).summary()
        assert "symbolic" in text
        assert "BDD nodes" in text
        assert "gate-implementable" in text


def handshake_factory():
    return FIXED_EXAMPLES["handshake"]()
