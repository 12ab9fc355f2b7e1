"""Tests for the VME bus controller example."""


from repro.api import EngineConfig, verify
from repro.report import ImplementabilityClass
from repro.sg import build_state_graph
from repro.stg.generators import vme_read_cycle, vme_read_cycle_resolved


class TestVMEExample:
    def test_vme_sizes(self):
        stg = vme_read_cycle()
        assert sorted(stg.inputs) == ["dsr", "ldtack"]
        assert sorted(stg.outputs) == ["d", "dtack", "lds"]
        assert stg.net.num_places == 11
        assert stg.net.num_transitions == 10

    def test_vme_state_count(self):
        assert build_state_graph(vme_read_cycle()).graph.num_states == 14

    def test_vme_is_io_implementable_only(self):
        report = verify(vme_read_cycle())
        assert report.consistent and report.output_persistent
        assert report.csc is False
        assert report.csc_reducible is True
        assert report.classification is ImplementabilityClass.IO

    def test_vme_famous_conflict_code(self):
        # The CSC conflict is at code dsr=1 ldtack=1 lds=1 d=0 dtack=0.
        from repro.sg.csc import check_csc

        stg = vme_read_cycle()
        graph = build_state_graph(stg).graph
        result = check_csc(graph, stg)
        codes = {conflict.code for conflict in result.conflicts}
        signals = stg.signals
        index = {s: i for i, s in enumerate(signals)}
        expected = ["0"] * len(signals)
        for name in ("dsr", "ldtack", "lds"):
            expected[index[name]] = "1"
        assert "".join(expected) in codes

    def test_vme_resolved_is_gate_implementable(self):
        report = verify(vme_read_cycle_resolved())
        assert report.csc is True
        assert report.classification is ImplementabilityClass.GATE

    def test_symbolic_and_explicit_agree_on_vme(self):
        for factory in (vme_read_cycle, vme_read_cycle_resolved):
            stg = factory()
            symbolic = verify(stg)
            explicit = verify(stg, EngineConfig(engine="explicit"))
            assert symbolic.classification == explicit.classification
            assert symbolic.num_states == explicit.num_states

