"""End-to-end daemon tests over a real socket.

The acceptance contracts of the serve subsystem live here: stream
shape, batch-check byte parity, warm-state reuse proven by counters,
single-flight concurrency, bounded-queue backpressure and graceful
shutdown that leaves the JSONL stores intact.
"""

import json
import os
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import corpus
from repro.runner import SweepPlan, run_sweep
from repro.runner.store import RunStore
from repro.serve import SERVE_SCHEMA_VERSION, ServeClient, ServeClientError
from repro.serve.state import RUN_STORE_DIR

PARITY_ENTRIES = ["handshake", "vme_read", "mutex_element",
                  "inconsistent"]


def metric(client, name):
    return client.metrics()["metrics"][name]


class TestStreaming:
    def test_stream_shape_queued_running_stages_result(self, client):
        events = list(client.check_stream(entry="handshake"))
        types = [event["type"] for event in events]
        assert types[0] == "queued"
        assert types[1] == "running"
        assert types[-1] == "result"
        assert "stage" in types[2:-1]
        stages = {event["stage"] for event in events
                  if event["type"] == "stage"}
        assert "queue_wait" in stages
        assert "entry" in stages
        assert "check" in stages  # per-check progress, live

    def test_queued_event_identifies_the_job(self, client):
        events = list(client.check_stream(entry="handshake"))
        queued = events[0]
        assert queued["schema"] == SERVE_SCHEMA_VERSION
        assert queued["name"] == "handshake"
        assert len(queued["fingerprint"]) == 64
        jobs = {event["job"] for event in events}
        assert jobs == {queued["job"]}

    def test_non_streaming_returns_the_terminal_event_only(self, client):
        result = client.check(entry="handshake")
        assert result["type"] == "result"
        assert result["status"] == "ok"
        assert result["entry"]["report"] is not None

    def test_raw_g_text_requests_verify(self, client):
        text = corpus.entry("handshake").g_text
        result = client.check(g_text=text, name="mine")
        assert result["status"] == "ok"
        assert result["name"] == "mine"

    def test_checks_subset_reports_partial_classification(self, client):
        result = client.check(entry="handshake", checks=["csc"])
        assert result["status"] == "ok"
        classification = result["entry"]["report"]["classification"]
        assert classification.startswith("partial")


class TestBatchCheckParity:
    def test_daemon_stable_views_match_the_sweep_runner(self, client):
        # The byte-identity acceptance criterion: a daemon verdict's
        # stable view equals the batch-check stable JSON entry for the
        # same task content.
        sweep = run_sweep(SweepPlan(names=PARITY_ENTRIES),
                          backend="serial")
        batch = {entry["name"]: entry
                 for entry in sweep.stable_json_dict()["entries"]}
        for name in PARITY_ENTRIES:
            served = client.check(entry=name)["stable"]
            assert json.dumps(served, sort_keys=True) == \
                json.dumps(batch[name], sort_keys=True), name


class TestWarmState:
    def test_repeat_request_skips_all_computation(self, client):
        cold = client.check(entry="handshake")
        assert cold["cached"] is False
        assert metric(client, "serve.entry.seconds")["count"] == 1
        warm = client.check(entry="handshake")
        assert warm["cached"] is True
        assert warm["stable"] == cold["stable"]
        # The counters prove nothing ran: still exactly one computed
        # entry, the repeat was a RunStore hit, and the BDD store saw
        # no second traversal.
        assert metric(client, "serve.entry.seconds")["count"] == 1
        assert metric(client, "serve.runstore.hits")["value"] == 1
        assert metric(client, "serve.bdd.misses")["value"] == 1
        assert metric(client, "serve.bdd.hits")["value"] == 0

    def test_different_checks_share_the_stored_traversal(self, client):
        client.check(entry="handshake")
        subset = client.check(entry="handshake", checks=["csc"])
        # Different fingerprint => a real second run (RunStore miss) ...
        assert subset["cached"] is False
        assert metric(client, "serve.runstore.misses")["value"] == 2
        # ... but the traversal itself came from the shared BDDStore.
        assert metric(client, "serve.bdd.misses")["value"] == 1
        assert metric(client, "serve.bdd.hits")["value"] == 1

    def test_concurrent_identical_requests_run_one_traversal(
            self, make_daemon):
        app = make_daemon(jobs=4)
        client = ServeClient(port=app.port)
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(
                lambda _: client.check(entry="vme_read", delay=0.2),
                range(4)))
        assert {result["status"] for result in results} == {"ok"}
        stables = {json.dumps(result["stable"], sort_keys=True)
                   for result in results}
        assert len(stables) == 1
        # One computation, three warm hits -- the single-flight lock
        # coalesced the stampede.
        assert metric(client, "serve.entry.seconds")["count"] == 1
        assert metric(client, "serve.runstore.hits")["value"] == 3
        assert metric(client, "serve.bdd.misses")["value"] == 1


class TestMetricsEndpoint:
    def test_snapshot_carries_the_documented_fields(self, client):
        client.check(entry="handshake")
        snapshot = client.metrics()
        assert snapshot["schema"] == SERVE_SCHEMA_VERSION
        metrics = snapshot["metrics"]
        for name in ("serve.requests", "serve.queue.depth",
                     "serve.request.seconds", "serve.queue_wait.seconds",
                     "serve.entry.seconds", "serve.runstore.hits",
                     "serve.runstore.misses", "serve.runstore.records",
                     "serve.bdd.hits", "serve.bdd.misses",
                     "serve.uptime.seconds"):
            assert name in metrics, name
        assert metrics["serve.requests"]["kind"] == "counter"
        assert metrics["serve.requests"]["value"] == 1
        assert metrics["serve.request.seconds"]["kind"] == "histogram"

    def test_health_endpoint(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["schema"] == SERVE_SCHEMA_VERSION


class TestErrors:
    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServeClientError) as info:
            client._simple("GET", "/nope")
        assert info.value.status == 404

    def test_malformed_body_is_400(self, client):
        with pytest.raises(ServeClientError) as info:
            client.check(entry="handshake", config={"engine": "quantum"})
        assert info.value.status == 400

    def test_unknown_entry_is_404(self, client):
        with pytest.raises(ServeClientError) as info:
            client.check(entry="definitely_not_registered")
        assert info.value.status == 404

    def test_unparseable_specification_is_an_error_result(self, client):
        # A failing *check* is still a verdict-shaped answer (exactly as
        # in a sweep): a terminal result with status "error", not an
        # HTTP failure.
        result = client.check(g_text=".bogus_directive\n")
        assert result["status"] == "error"
        assert result["entry"]["error"]

    def test_full_queue_rejects_with_503(self, make_daemon):
        app = make_daemon(jobs=1, queue_size=1)
        client = ServeClient(port=app.port)
        # Occupy the single worker (wait for "running" so the queue is
        # provably empty again), then fill the one queue slot.
        blocker = client.check_stream(entry="handshake", delay=1.0)
        assert next(blocker)["type"] == "queued"
        assert next(blocker)["type"] == "running"
        queued = client.check_stream(entry="vme_read", delay=0.0)
        assert next(queued)["type"] == "queued"
        with pytest.raises(ServeClientError) as info:
            client.check(entry="mutex_element")
        assert info.value.status == 503
        assert "queue full" in str(info.value)
        # Both accepted jobs still complete.
        assert list(blocker)[-1]["type"] == "result"
        assert list(queued)[-1]["type"] == "result"
        assert metric(client, "serve.rejected")["value"] == 1


class TestGracefulShutdown:
    def test_drain_completes_inflight_jobs_and_keeps_stores_clean(
            self, make_daemon):
        app = make_daemon(jobs=2, queue_size=16)
        client = ServeClient(port=app.port)
        names = ["handshake", "vme_read", "mutex_element"]
        streams = [client.check_stream(entry=name, delay=0.3)
                   for name in names]
        for stream in streams:  # all accepted before the shutdown
            assert next(stream)["type"] == "queued"
        assert client.shutdown() == {"status": "draining"}
        # Every accepted stream still runs to its terminal event.
        finals = [list(stream)[-1] for stream in streams]
        assert [event["type"] for event in finals] == ["result"] * 3
        assert {event["status"] for event in finals} == {"ok"}
        app.stop(timeout=30)
        # New connections are refused once the listener closed.
        with pytest.raises(ServeClientError):
            client.health()
        # The JSONL store survived the shutdown without a torn line.
        store = RunStore(os.path.join(app.state.state_dir, RUN_STORE_DIR))
        assert store.skipped_lines == 0
        assert len(store) == len(names)
        for name in names:
            assert name in store
