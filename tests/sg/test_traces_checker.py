"""Tests for trace utilities and the explicit engine."""


from repro.api import EngineConfig, verify
from repro.report import ImplementabilityClass
from repro.sg import build_state_graph
from repro.sg.traces import (
    bounded_io_equivalent,
    bounded_trace_equivalent,
    project,
    project_traces,
    traces_up_to,
    unbalanced_set,
)
from repro.stg.generators import (
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


class TestTraces:
    def test_traces_up_to_depth(self):
        stg = handshake()
        graph = build_state_graph(stg).graph
        traces = traces_up_to(graph, stg, 2)
        assert () in traces
        assert ("r+",) in traces
        assert ("r+", "a+") in traces
        assert all(len(t) <= 2 for t in traces)

    def test_traces_generic_vs_indexed(self):
        stg = csc_violation_example()
        graph = build_state_graph(stg).graph
        generic = traces_up_to(graph, stg, 6, generic=True)
        indexed = traces_up_to(graph, stg, 6, generic=False)
        assert any("a+" in trace for trace in generic)
        assert any("a+/2" in trace for trace in indexed)

    def test_projection(self):
        assert project(("a+", "b-", "a-"), ["a"]) == ("a+", "a-")
        assert project(("a+", "b-"), ["c"]) == ()

    def test_project_traces(self):
        traces = {("a+", "b+"), ("b+", "a+")}
        assert project_traces(traces, ["a"]) == {("a+",)}

    def test_unbalanced_set(self):
        assert unbalanced_set(("a+", "b+", "a-")) == frozenset({"b"})
        assert unbalanced_set(("a+", "a-")) == frozenset()
        assert unbalanced_set(()) == frozenset()

    def test_d1_d2_trace_equivalent(self):
        d1, d2 = fake_conflict_d1(), fake_conflict_d2()
        g1 = build_state_graph(d1).graph
        g2 = build_state_graph(d2).graph
        assert bounded_trace_equivalent(g1, d1, g2, d2,
                                        ["a", "b", "c"], depth=6)

    def test_io_equivalence_requires_same_interface(self):
        d1 = fake_conflict_d1()
        hs = handshake()
        g1 = build_state_graph(d1).graph
        g2 = build_state_graph(hs).graph
        assert not bounded_io_equivalent(g1, d1, g2, hs, depth=4)

    def test_io_equivalence_of_identical_specs(self):
        a, b = handshake(), handshake()
        ga = build_state_graph(a).graph
        gb = build_state_graph(b).graph
        assert bounded_io_equivalent(ga, a, gb, b, depth=8)

    def test_trace_inequivalence_detected(self):
        base = csc_violation_example()
        resolved = csc_resolved_example()
        gb = build_state_graph(base).graph
        gr = build_state_graph(resolved).graph
        # Projected on the common I/O signals the two are equivalent ...
        assert bounded_trace_equivalent(gb, base, gr, resolved,
                                        ["a", "b", "c"], depth=8)
        # ... but on all signals (including the inserted x) they are not.
        assert not bounded_trace_equivalent(gb, base, gr, resolved,
                                            ["a", "b", "c", "x"], depth=8)


def explicit(stg, **config):
    return verify(stg, EngineConfig(engine="explicit", **config))


class TestExplicitEngine:
    def test_handshake_is_gate_implementable(self):
        report = explicit(handshake())
        assert report.bounded and report.consistent
        assert report.output_persistent and report.csc
        assert report.classification is ImplementabilityClass.GATE
        assert report.gate_implementable

    def test_muller_pipeline_gate_implementable(self):
        report = explicit(muller_pipeline(3))
        assert report.classification is ImplementabilityClass.GATE
        assert report.num_states == 16

    def test_master_read_gate_implementable(self):
        report = explicit(master_read(2))
        assert report.classification is ImplementabilityClass.GATE

    def test_inconsistent_example_not_implementable(self):
        report = explicit(inconsistent_example())
        assert report.consistent is False
        assert report.classification is ImplementabilityClass.NOT_IMPLEMENTABLE

    def test_output_disabled_by_input_not_implementable(self):
        report = explicit(output_disabled_by_input())
        assert report.output_persistent is False
        assert report.classification is ImplementabilityClass.NOT_IMPLEMENTABLE

    def test_csc_violation_is_io_implementable(self):
        report = explicit(csc_violation_example())
        assert report.csc is False
        assert report.csc_reducible is True
        assert report.classification is ImplementabilityClass.IO
        assert report.io_implementable and not report.gate_implementable

    def test_irreducible_csc_is_only_si_implementable(self):
        report = explicit(irreducible_csc_example())
        assert report.csc is False
        assert report.csc_reducible is False
        assert report.classification is ImplementabilityClass.SI

    def test_mutex_with_arbitration_is_gate_implementable(self):
        stg = mutex_element()
        report = explicit(
            stg, arbitration_places=tuple(mutex_arbitration_places(stg)))
        assert report.output_persistent
        assert report.classification is ImplementabilityClass.GATE

    def test_mutex_without_arbitration_fails_persistency(self):
        report = explicit(mutex_element())
        assert report.output_persistent is False

    def test_report_contains_timings_and_summary(self):
        report = explicit(handshake())
        assert set(report.timings) == {"T+C", "NI-p", "CSC"}
        text = report.summary()
        assert "handshake" in text
        assert "classification" in text
        assert "gate-implementable" in text

    def test_report_to_dict(self):
        report = explicit(handshake())
        data = report.to_dict()
        assert data["num_states"] == 4
        assert data["method"] == "explicit"
        assert data["csc"] is True

    def test_fake_conflict_d1_rejected_by_fake_freedom(self):
        report = explicit(fake_conflict_d1())
        assert report.fake_free is False
        # Signal-level persistency still holds (Figure 3's point).
        assert report.output_persistent is True
