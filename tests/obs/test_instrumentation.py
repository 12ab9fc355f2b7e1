"""The instrumented stack: parse -> encoding -> ordering -> traversal
-> checks -> synthesis all emit spans, and the per-stage self times
account for the entry's wall time."""

from repro import api, obs
from repro.obs.report import (
    events_of,
    stage_breakdown,
    trace_meta,
    trace_wall_s,
)
from repro.runner.plan import SweepPlan
from repro.runner.worker import execute_payload
from repro.stg.generators import build_example


def traced_worker_run(name="vme_read", provenance=None, **config):
    task = SweepPlan(names=[name]).tasks()[0]
    payload = task.to_payload()
    payload["config"].update(config)
    payload["provenance"] = dict(provenance or {})
    sink = obs.InMemorySink()
    real_tracing = obs.tracing

    def capture(trace_dir=None, **kwargs):
        kwargs.pop("sink", None)
        return real_tracing(sink=sink, **kwargs)

    obs.tracing = capture
    try:
        result = execute_payload(payload)
    finally:
        obs.tracing = real_tracing
    return result, sink.records


class TestPipelineSpans:
    def test_full_stack_emits_the_stage_vocabulary(self):
        sink = obs.InMemorySink()
        stg = build_example("muller_pipeline", 3)
        with obs.tracing(name=stg.name, sink=sink):
            pipeline = api.run(stg).pipeline
        names = {record["name"] for record in sink.spans()}
        assert {"encoding", "ordering", "traversal", "check"} <= names
        assert pipeline is not None

    def test_traversal_span_carries_stats_and_bdd_deltas(self):
        sink = obs.InMemorySink()
        stg = build_example("muller_pipeline", 3)
        with obs.tracing(name=stg.name, sink=sink):
            api.run(stg)
        traversal, = [s for s in sink.spans()
                      if s["name"] == "traversal"]
        assert traversal["attrs"]["iterations"] > 0
        assert traversal["attrs"]["peak_nodes"] > 0
        assert traversal["bdd"]["lookups"] > 0

    def test_traversal_wall_time_is_the_traversal_span(self):
        sink = obs.InMemorySink()
        stg = build_example("muller_pipeline", 3)
        with obs.tracing(name=stg.name, sink=sink):
            outcome = api.run(stg)
        traversal, = [s for s in sink.spans()
                      if s["name"] == "traversal"]
        assert traversal["duration_s"] == \
            round(outcome.traversal["wall_time_s"], 6)

    def test_iteration_events_report_frontier_sizes(self):
        """A saturation round reports how many firings grew its node (no
        BDD is sized); a global iteration reports its frontier's size."""
        def iterations(strategy):
            sink = obs.InMemorySink()
            stg = build_example("muller_pipeline", 3)
            with obs.tracing(name=stg.name, sink=sink):
                api.run(stg, api.EngineConfig(traversal_strategy=strategy))
            found = [e["attrs"] for e in events_of(sink.records)
                     if e["name"] == "iteration"]
            assert found
            return found

        saturation = iterations("saturation")
        assert all(e["fresh"] > 0 and e["firings"] >= e["fresh"]
                   and "frontier_nodes" not in e for e in saturation)
        assert all(e["frontier_nodes"] > 0 for e in iterations("chained"))

    def test_check_spans_are_keyed_by_check_attr(self):
        sink = obs.InMemorySink()
        stg = build_example("muller_pipeline", 3)
        with obs.tracing(name=stg.name, sink=sink):
            api.run(stg)
        checks = {s["attrs"]["check"] for s in sink.spans()
                  if s["name"] == "check"}
        assert "consistency" in checks and "csc" in checks

    def test_explicit_engine_emits_check_spans_too(self):
        sink = obs.InMemorySink()
        stg = build_example("muller_pipeline", 3)
        with obs.tracing(name=stg.name, sink=sink):
            api.run(stg, api.EngineConfig(engine="explicit"))
        assert any(s["name"] == "check" for s in sink.spans())

    def test_synthesis_spans(self):
        from repro.core.pipeline import VerificationPipeline
        from repro.synthesis.complex_gate import synthesize_complex_gates

        sink = obs.InMemorySink()
        pipeline = VerificationPipeline(build_example("muller_pipeline", 3))
        with obs.tracing(name="synth", sink=sink):
            gates = synthesize_complex_gates(pipeline.encoding,
                                             pipeline.reached)
        synthesis, = [s for s in sink.spans()
                      if s["name"] == "synthesis"]
        assert synthesis["attrs"]["gates"] == len(gates)
        assert synthesis["bdd"]["lookups"] > 0

    def test_untraced_run_still_verifies(self):
        outcome = api.run(build_example("muller_pipeline", 3))
        assert outcome.report.consistent
        assert outcome.traversal is not None


class TestWorkerTraces:
    def test_stage_self_times_account_for_the_entry_duration(self):
        # The acceptance criterion: per-stage self times sum to the
        # traced wall time exactly (telescoping) and to the worker's
        # own duration measurement within 10%.
        result, records = traced_worker_run("vme_read")
        stages = stage_breakdown(records)
        stage_sum = sum(entry["self_s"] for entry in stages.values())
        wall = trace_wall_s(records)
        assert abs(stage_sum - wall) < 1e-5
        assert abs(stage_sum - result["duration"]) / result["duration"] \
            < 0.10

    def test_entry_duration_is_the_entry_span(self):
        result, records = traced_worker_run("vme_read")
        entry, = [s for s in records
                  if s["type"] == "span" and s["name"] == "entry"]
        assert entry["duration_s"] == round(result["duration"], 6)

    def test_entry_span_parents_every_stage(self):
        _, records = traced_worker_run("vme_read")
        spans = [r for r in records if r["type"] == "span"]
        entry, = [s for s in spans if s["name"] == "entry"]
        assert entry["parent"] is None
        assert all(s["parent"] is not None
                   for s in spans if s is not entry)
        assert {"parse", "traversal"} <= {s["name"] for s in spans}

    def test_meta_carries_provenance_and_fingerprint(self):
        provenance = {"backend": "serial", "shard": "2/4"}
        result, records = traced_worker_run("vme_read",
                                            provenance=provenance)
        meta = trace_meta(records)
        assert meta["provenance"] == provenance
        assert meta["fingerprint"] == result["fingerprint"]
        assert meta["entry"] == "vme_read"

    def test_entry_span_records_the_status(self):
        _, records = traced_worker_run("vme_read")
        entry, = [s for s in records
                  if s["type"] == "span" and s["name"] == "entry"]
        assert entry["attrs"]["status"] == "ok"
