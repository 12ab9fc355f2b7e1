"""Schema-2 serve features: ``base`` warm-starts over the wire, strict
config-key validation, and schema negotiation in both directions.

The editor-loop contract end to end: check a base spec, edit it, re-check
with ``base=`` naming the earlier task -- the daemon resolves the
reference against its warm stores, the worker seeds the traversal, and
the stable verdict still byte-matches a cold daemon's.
"""

import json

import pytest

from repro.serve import ServeClient
from repro.serve.client import ServeClientError
from repro.serve.protocol import SERVE_SCHEMA_VERSION
from repro.stg.generators import build_example
from repro.stg.parser import parse_g
from repro.stg.stg import SignalKind
from repro.stg.writer import to_g_string


def base_text(scale=6):
    return to_g_string(build_example("muller_pipeline", scale))


def edited_text(scale=6, signal="xprobe"):
    stg = parse_g(base_text(scale), name="edited")
    rising, falling = f"{signal}+", f"{signal}-"
    stg.add_signal(signal, SignalKind.INTERNAL, initial_value=False)
    stg.add_place("p_x0", tokens=1)
    stg.add_place("p_x1")
    stg.add_transition(rising)
    stg.add_transition(falling)
    for arc in (("p_x0", rising), (rising, "p_x1"),
                ("p_x1", falling), (falling, "p_x0")):
        stg.add_arc(*arc)
    return to_g_string(stg)


class TestBaseFlow:
    def test_edit_recheck_seeds_from_the_named_task(self, client):
        client.check(g_text=base_text(), name="editbase", checks=["csc"])
        result = client.check(g_text=edited_text(), name="edit1",
                              checks=["csc"], base="editbase")
        delta = result["entry"]["report"]["delta"]
        assert delta["tier"] == "seed"
        assert delta["closed"] is True
        assert result["stable"]["report"]["delta"] is None

    def test_base_accepts_the_echoed_reachability_fingerprint(self,
                                                              client):
        # A delta queued event echoes the resolved base as a raw
        # reachability fingerprint; quoting it back must resolve
        # without any name lookup.
        client.check(g_text=base_text(), name="editbase", checks=["csc"])
        events = list(client.check_stream(g_text=edited_text(),
                                          name="edit1", checks=["csc"],
                                          base="editbase"))
        assert events[0]["schema"] == SERVE_SCHEMA_VERSION
        fingerprint = events[0]["base"]
        # A *different* second edit (an identical one would hit the
        # warm reachability store outright, no delta path needed).
        result = client.check(g_text=edited_text(signal="yprobe"),
                              name="edit2", checks=["csc"],
                              base=fingerprint)
        assert result["entry"]["report"]["delta"]["tier"] == "seed"

    def test_queued_event_echoes_the_resolved_base(self, client):
        client.check(g_text=base_text(), name="editbase", checks=["csc"])
        events = list(client.check_stream(g_text=edited_text(),
                                          name="edit1", checks=["csc"],
                                          base="editbase"))
        assert len(events[0]["base"]) == 64

    def test_base_corpus_entry_resolves(self, client):
        client.check(entry="handshake", checks=["csc"])
        # A genuine rename (rewritten ``.model`` line) -- an identical
        # text would be served by the exact warm store, no delta path.
        edited = "\n".join(
            ".model edited" if line.startswith(".model") else line
            for line in to_g_string(
                build_example("handshake")).splitlines()) + "\n"
        result = client.check(g_text=edited, name="edit1",
                              checks=["csc"], base="handshake")
        assert result["entry"]["report"]["delta"]["tier"] in (
            "hit", "seed")

    def test_stable_verdict_matches_a_cold_daemon(self, make_daemon):
        warm_app = make_daemon()
        cold_app = make_daemon()
        warm = ServeClient(port=warm_app.port)
        cold = ServeClient(port=cold_app.port)
        warm.check(g_text=base_text(), name="editbase", checks=["csc"])
        seeded = warm.check(g_text=edited_text(), name="edit1",
                            checks=["csc"], base="editbase")
        fresh = cold.check(g_text=edited_text(), name="edit1",
                           checks=["csc"])
        assert seeded["entry"]["report"]["delta"]["tier"] == "seed"
        assert json.dumps(seeded["stable"], sort_keys=True) == \
            json.dumps(fresh["stable"], sort_keys=True)

    def test_delta_metrics_fire(self, client):
        client.check(g_text=base_text(), name="editbase", checks=["csc"])
        client.check(g_text=edited_text(), name="edit1", checks=["csc"],
                     base="editbase")
        metrics = client.metrics()["metrics"]
        assert metrics["serve.delta.requests"]["value"] == 1
        assert metrics["serve.bdd.delta_seeds"]["value"] == 1
        assert metrics["serve.bdd.delta_colds"]["value"] == 0

    def test_bdd_store_totals_are_counters(self, daemon, client):
        client.check(g_text=base_text(), name="editbase", checks=["csc"])
        client.check(g_text=base_text(), name="editbase",
                     checks=["safeness"])  # the reachable set hits
        client.check(g_text=edited_text(), name="edit1", checks=["csc"],
                     base="editbase")
        store = daemon.state.bdd_store
        assert store.misses and store.hits and store.delta_seeds
        for _ in range(2):  # an observation adds only what is new
            metrics = client.metrics()["metrics"]
            for total in ("hits", "misses", "delta_hits", "delta_seeds",
                          "delta_colds"):
                assert metrics[f"serve.bdd.{total}"] == {
                    "kind": "counter", "value": getattr(store, total)}
        assert metrics["serve.runstore.records"]["kind"] == "gauge"


class TestValidation:
    def test_unknown_base_is_404(self, client):
        with pytest.raises(ServeClientError) as error:
            client.check(g_text=edited_text(), base="no-such-base")
        assert error.value.status == 404
        assert "unknown base" in str(error.value)

    def test_unknown_config_key_is_400(self, client):
        with pytest.raises(ServeClientError) as error:
            client.check(g_text=base_text(),
                         config={"orderin": "force"})
        assert error.value.status == 400
        assert "unknown config key" in str(error.value)
        assert "ordering" in str(error.value)  # names the real fields


class TestSchemaNegotiation:
    def test_healthz_serves_schema_2(self, client):
        assert client.health()["schema"] == SERVE_SCHEMA_VERSION == 2
        assert client.server_schema() == 2

    def test_new_client_rejects_base_against_old_server(self, client):
        # Simulate a schema-1 daemon through the negotiation cache: the
        # client must fail fast on its own side, before sending.
        client._server_schema = 1
        with pytest.raises(ServeClientError, match="schema >= 2"):
            client.check(g_text=edited_text(), base="editbase")
        with pytest.raises(ServeClientError, match="schema >= 2"):
            next(client.check_stream(g_text=edited_text(),
                                     base="editbase"))

    def test_old_client_requests_still_work(self, client):
        # A schema-1 body (no base, loose config) is still valid under
        # schema 2 -- the bump is additive.
        result = client.check(g_text=base_text(), name="old-style",
                              config={"ordering": "force"},
                              checks=["csc"])
        assert result["status"] == "ok"
