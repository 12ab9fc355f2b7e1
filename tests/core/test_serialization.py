"""Round-trip tests of the shared result schema.

``to_dict``/``from_dict`` on :class:`repro.core.stats.TraversalStats` and
:class:`repro.report.ImplementabilityReport` is the one schema used by
the sweep runner's worker pipes, the persistent RunStore and the CLI's
``--json`` report; these tests pin the round trip exactly.
"""

import json

from repro.api import ALL, verify
from repro.core.pipeline import VerificationPipeline
from repro.core.stats import TraversalStats
from repro.report import ImplementabilityReport, PropertyVerdict
from repro.stg.generators import handshake, vme_read_cycle


class TestTraversalStats:
    def test_roundtrip_is_exact(self):
        stats = TraversalStats(iterations=7, images_computed=21,
                               peak_nodes=120, final_nodes=40,
                               num_variables=10, num_states=64)
        assert TraversalStats.from_dict(stats.to_dict()) == stats

    def test_roundtrip_through_json(self):
        stats = TraversalStats(iterations=3, num_states=8)
        text = json.dumps(stats.to_dict())
        assert TraversalStats.from_dict(json.loads(text)) == stats

    def test_unknown_keys_ignored(self):
        data = TraversalStats(iterations=2).to_dict()
        data["future_field"] = "whatever"
        assert TraversalStats.from_dict(data).iterations == 2

    def test_live_stats_roundtrip(self):
        stats = VerificationPipeline(handshake()).traversal_stats
        assert TraversalStats.from_dict(stats.to_dict()) == stats


class TestPropertyVerdict:
    def test_roundtrip(self):
        verdict = PropertyVerdict("csc", False, ["signal d", "signal lds"])
        assert PropertyVerdict.from_dict(verdict.to_dict()) == verdict


class TestImplementabilityReport:
    def test_live_report_roundtrips_exactly(self):
        report = verify(vme_read_cycle(), checks=ALL)
        rebuilt = ImplementabilityReport.from_dict(report.to_dict())
        assert rebuilt == report

    def test_roundtrip_through_json(self):
        report = verify(handshake(), checks=ALL)
        text = json.dumps(report.to_dict())
        rebuilt = ImplementabilityReport.from_dict(json.loads(text))
        assert rebuilt == report

    def test_derived_properties_recompute(self):
        report = verify(vme_read_cycle(), checks=ALL)
        rebuilt = ImplementabilityReport.from_dict(report.to_dict())
        assert rebuilt.classification == report.classification
        assert rebuilt.csc_reducible == report.csc_reducible
        assert rebuilt.io_implementable == report.io_implementable

    def test_unknown_keys_ignored(self):
        report = verify(handshake())
        data = report.to_dict()
        data["added_in_a_future_schema"] = 42
        assert ImplementabilityReport.from_dict(data) == report

    def test_verdict_evidence_survives(self):
        report = verify(vme_read_cycle(), checks=ALL)
        rebuilt = ImplementabilityReport.from_dict(report.to_dict())
        assert [str(v) for v in rebuilt.verdicts] == \
            [str(v) for v in report.verdicts]
