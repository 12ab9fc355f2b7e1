"""Tests of the shared verification pipeline.

The point of :class:`repro.core.pipeline.VerificationPipeline` is that the
encoding / image / reachable-BDD chain is computed once and shared by all
property checks, so these tests pin the caching behaviour as well as the
reports the facade builds over it.
"""


from repro import api, corpus
from repro.api.checks import resolve_checks, run_checks
from repro.core import VerificationPipeline
from repro.core import pipeline as pipeline_module
from repro.stg.generators import handshake, mutex_element, vme_read_cycle


class TestSharedChain:
    def test_chain_objects_are_stable(self):
        pipeline = VerificationPipeline(handshake())
        assert pipeline.encoding is pipeline.encoding
        assert pipeline.image is pipeline.image
        assert pipeline.reached is pipeline.reached
        assert pipeline.image.encoding is pipeline.encoding

    def test_traversal_runs_exactly_once(self, monkeypatch):
        calls = []
        original = pipeline_module.symbolic_traversal

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline_module, "symbolic_traversal", counting)
        pipeline = VerificationPipeline(vme_read_cycle())
        pipeline.consistency()
        pipeline.csc()
        pipeline.conflict_pairs()
        pipeline.deadlock_freedom()
        run_checks(pipeline, resolve_checks(api.ALL), "symbolic")
        assert len(calls) == 1

    def test_property_results_are_cached(self):
        pipeline = VerificationPipeline(handshake())
        assert pipeline.consistency() is pipeline.consistency()
        assert pipeline.csc() is pipeline.csc()

    def test_traversal_stats_available(self):
        pipeline = VerificationPipeline(handshake())
        assert pipeline.traversal_stats.num_states == 4

    def test_manager_never_forces_the_encoding(self):
        pipeline = VerificationPipeline(handshake())
        assert pipeline.manager is None
        manager = pipeline.encoding.manager
        assert pipeline.manager is manager


class TestRunReport:
    def test_check_loop_matches_facade(self):
        stg = vme_read_cycle()
        pipeline = VerificationPipeline(stg)
        direct = run_checks(pipeline, resolve_checks(None), "symbolic")
        via_facade = api.verify(stg)
        # The facade adds only the traversal statistics to the loop's
        # report.
        stats = pipeline.traversal_stats
        direct.num_states = stats.num_states
        direct.bdd_peak_nodes = stats.peak_nodes
        direct.bdd_final_nodes = stats.final_nodes
        direct.bdd_variables = stats.num_variables
        direct_fields = direct.to_dict()
        facade_fields = via_facade.to_dict()
        direct_fields.pop("timings")
        facade_fields.pop("timings")
        assert direct_fields == facade_fields
        assert direct.verdicts == via_facade.verdicts

    def test_run_exposes_its_pipeline(self):
        outcome = api.run(handshake())
        assert isinstance(outcome.pipeline, VerificationPipeline)
        # The chain is reusable after the run without another traversal.
        assert outcome.pipeline.traversal_stats.num_states == \
            outcome.report.num_states

    def test_liveness_fields_filled_only_on_request(self):
        stg = handshake()
        plain = api.verify(stg)
        assert plain.deadlock_free is None and plain.reversible is None
        live = api.verify(stg, checks=api.ALL)
        assert live.deadlock_free is True
        assert live.reversible is True
        assert "live" in live.timings

    def test_arbitration_places_are_honoured(self):
        stg = mutex_element()
        tolerant = api.verify(
            stg, api.EngineConfig(arbitration_places=("p_me",)))
        strict = api.verify(stg)
        assert tolerant.output_persistent is True
        assert strict.output_persistent is False

    def test_initial_values_override_copies_the_stg(self):
        stg = handshake()
        outcome = api.run(stg, api.EngineConfig(initial_values={"r": False}))
        assert outcome.pipeline.stg is not stg
        assert outcome.report.consistent is True


class TestCorpusSweep:
    """The pipeline is the engine behind `stg-check batch-check`."""

    def test_full_corpus_matches_metadata(self):
        for name in corpus.names():
            entry = corpus.entry(name)
            report = api.verify(
                corpus.load(name),
                api.EngineConfig(
                    arbitration_places=tuple(entry.arbitration_places)),
                checks=api.ALL)
            assert entry.mismatches(report) == [], name
