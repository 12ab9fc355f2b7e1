"""Unit tests for the shared report type and its phase timings."""

import time

import pytest

from repro import api, obs
from repro.report import (
    ImplementabilityClass,
    ImplementabilityReport,
    PropertyVerdict,
)
from repro.stg.generators import muller_pipeline


def make_report(**overrides):
    base = dict(stg_name="spec", method="symbolic", bounded=True,
                consistent=True, output_persistent=True, csc=True, usc=True,
                deterministic=True, commutative=True, complementary_free=True)
    base.update(overrides)
    return ImplementabilityReport(**base)


class TestClassification:
    def test_gate_implementable(self):
        report = make_report()
        assert report.classification is ImplementabilityClass.GATE
        assert report.gate_implementable and report.io_implementable

    def test_io_implementable_when_csc_fails_but_reducible(self):
        report = make_report(csc=False)
        assert report.csc_reducible is True
        assert report.classification is ImplementabilityClass.IO
        assert report.io_implementable and not report.gate_implementable

    def test_si_only_when_irreducible(self):
        report = make_report(csc=False, complementary_free=False)
        assert report.classification is ImplementabilityClass.SI
        assert not report.io_implementable

    def test_not_implementable_on_basic_failures(self):
        for field in ("bounded", "consistent", "output_persistent"):
            report = make_report(**{field: False})
            assert report.classification is \
                ImplementabilityClass.NOT_IMPLEMENTABLE, field

    def test_unknown_commutativity_blocks_io_classification(self):
        report = make_report(csc=False, commutative=None)
        assert report.csc_reducible is None
        assert report.classification is ImplementabilityClass.SI

    def test_classification_strings(self):
        assert "gate" in str(ImplementabilityClass.GATE)
        assert "I/O" in str(ImplementabilityClass.IO)
        assert str(ImplementabilityClass.PARTIAL).startswith("partial")

    def test_partial_when_basics_unchecked(self):
        report = make_report(bounded=None, consistent=None,
                             output_persistent=None)
        assert report.classification is ImplementabilityClass.PARTIAL
        assert not report.io_implementable

    def test_partial_when_csc_unchecked(self):
        report = make_report(csc=None, usc=None)
        assert report.classification is ImplementabilityClass.PARTIAL

    def test_partial_when_reducibility_never_ran(self):
        report = make_report(csc=False, deterministic=None,
                             commutative=None, complementary_free=None)
        assert report.classification is ImplementabilityClass.PARTIAL

    def test_partial_round_trips_through_the_dict_schema(self):
        report = make_report(csc=None, usc=None)
        data = report.to_dict()
        # Rendered explicitly for --json consumers ...
        assert data["classification"] == str(ImplementabilityClass.PARTIAL)
        # ... and recomputed (not restored) on the way back, exactly.
        rebuilt = ImplementabilityReport.from_dict(data)
        assert rebuilt == report
        assert rebuilt.classification is ImplementabilityClass.PARTIAL
        assert rebuilt.to_dict() == data

    def test_partial_rendered_in_summary(self):
        report = make_report(csc=None, usc=None)
        assert "classification: partial" in report.summary()


class TestVerdictsAndRendering:
    def test_add_verdict_and_summary(self):
        report = make_report()
        report.add_verdict("some property", True)
        report.add_verdict("broken property", False, ["detail 1", "detail 2"])
        text = report.summary()
        assert "[OK ] some property" in text
        assert "[FAIL] broken property" in text
        assert "detail 1" in text

    def test_verdict_detail_truncation(self):
        verdict = PropertyVerdict("p", False, [f"d{i}" for i in range(10)])
        text = str(verdict)
        assert "d0" in text and "d9" not in text
        assert "7 more" in text

    def test_to_dict_fields(self):
        report = make_report()
        report.timings = {"T+C": 0.5, "CSC": 0.25}
        data = report.to_dict()
        assert data["stg_name"] == "spec"
        assert report.csc_reducible is True
        assert data["timings"] == {"T+C": 0.5, "CSC": 0.25}
        assert report.total_time == pytest.approx(0.75)

    def test_summary_includes_bdd_stats_only_when_present(self):
        without = make_report()
        assert "BDD nodes" not in without.summary()
        with_stats = make_report(bdd_peak_nodes=10, bdd_final_nodes=5,
                                 bdd_variables=7)
        assert "BDD nodes: peak 10, final 5" in with_stats.summary()


class TestTimedSpans:
    """``obs.timed``: the one clock behind report timings."""

    def test_untraced_block_is_timed_but_inert(self):
        with obs.timed("work", detail=1) as span:
            time.sleep(0.01)
            span.annotate(ignored=True)
        assert not span
        assert span.duration_s >= 0.01

    def test_untraced_block_is_timed_even_when_it_raises(self):
        with pytest.raises(ValueError):
            with obs.timed("work") as span:
                time.sleep(0.01)
                raise ValueError("boom")
        assert span.duration_s >= 0.01

    def test_traced_block_is_the_real_span(self):
        sink = obs.InMemorySink()
        with obs.tracing(name="t", sink=sink):
            with obs.timed("work") as span:
                time.sleep(0.01)
        record, = sink.spans()
        assert span.duration_s >= 0.01
        assert record["duration_s"] == round(span.duration_s, 6)


class TestPhaseTimings:
    @pytest.mark.parametrize("engine", ["symbolic", "explicit"])
    def test_timings_are_the_check_spans(self, engine):
        # Report timings and the trace come from the same spans, so
        # they cannot disagree: each phase is its checks' span total.
        sink = obs.InMemorySink()
        with obs.tracing(name="t", sink=sink):
            report = api.verify(muller_pipeline(3),
                                api.EngineConfig(engine=engine))
        per_phase = {}
        for record in sink.spans():
            if record["name"] == "check":
                phase = record["attrs"]["phase"]
                per_phase[phase] = (per_phase.get(phase, 0.0)
                                    + record["duration_s"])
        assert list(report.timings) == ["T+C", "NI-p", "CSC"]
        for phase, seconds in report.timings.items():
            assert seconds == pytest.approx(per_phase[phase], abs=1e-5)
