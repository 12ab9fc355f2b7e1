"""The wire schema: request validation and event records."""

import json

import pytest

from repro.runner.results import EntryResult
from repro.serve import protocol
from repro.serve.protocol import ProtocolError, parse_check_request


class TestParseCheckRequest:
    def test_entry_request_round_trips(self):
        request = parse_check_request(
            {"entry": "vme_read", "checks": ["csc"], "delay": 0.5,
             "stream": False})
        assert request.entry == "vme_read"
        assert request.g_text is None
        assert request.checks == ("csc",)
        assert request.delay == 0.5
        assert request.stream is False

    def test_g_text_request_with_defaults(self):
        request = parse_check_request({"g_text": ".model x\n.end\n"})
        assert request.g_text == ".model x\n.end\n"
        assert request.entry is None
        assert request.checks is None
        assert request.delay == 0.0
        assert request.stream is True

    def test_config_dict_is_carried_verbatim(self):
        request = parse_check_request(
            {"entry": "handshake", "config": {"engine": "explicit"}})
        assert request.config == {"engine": "explicit"}

    @pytest.mark.parametrize("body", [
        None, [], "x", 7,                                # not an object
        {},                                              # neither subject
        {"entry": "a", "g_text": "b"},                   # both subjects
        {"entry": ""},                                   # empty subject
        {"entry": "a", "check": ["csc"]},                # typo'd key
        {"entry": "a", "checks": "csc"},                 # not a list
        {"entry": "a", "checks": [1]},                   # not names
        {"entry": "a", "config": ["engine"]},            # not a dict
        {"entry": "a", "delay": -1},                     # negative delay
        {"entry": "a", "delay": True},                   # bool is not a number
        {"entry": "a", "stream": "yes"},                 # not a bool
    ])
    def test_malformed_bodies_are_rejected(self, body):
        with pytest.raises(ProtocolError):
            parse_check_request(body)

    def test_unknown_keys_name_the_offenders(self):
        with pytest.raises(ProtocolError, match="'check'"):
            parse_check_request({"entry": "a", "check": ["csc"]})

    def test_deadline_is_not_a_config_key(self):
        # ``timeout`` is the config's one time budget.
        with pytest.raises(ProtocolError, match="'deadline'") as info:
            parse_check_request({"entry": "a", "config": {"deadline": 1.0}})
        assert info.value.status == 400


class TestEvents:
    def test_queued_event_carries_the_schema_version(self):
        event = protocol.queued_event(3, "vme_read", "f" * 64, 1)
        assert event["type"] == "queued"
        assert event["schema"] == protocol.SERVE_SCHEMA_VERSION
        assert event["fingerprint"] == "f" * 64
        assert event["queue_depth"] == 1

    def test_stage_event_projects_a_span_record(self):
        record = {"type": "span", "id": 4, "parent": 2, "depth": 2,
                  "name": "check", "start_s": 0.1, "duration_s": 0.05,
                  "attrs": {"check": "csc"}}
        event = protocol.stage_event(7, record)
        assert event == {"type": "stage", "job": 7, "stage": "check",
                         "duration_s": 0.05, "attrs": {"check": "csc"}}

    def test_result_event_embeds_full_and_stable_views(self):
        result = EntryResult(name="x", status="ok", engine="symbolic",
                             fingerprint="abc", duration=1.5,
                             provenance={"backend": "serve"})
        event = protocol.result_event(1, result)
        assert event["status"] == "ok"
        assert event["entry"] == result.to_dict()
        assert event["stable"] == result.stable_dict()
        assert "provenance" not in event["stable"]

    def test_terminal_events_are_result_and_error(self):
        assert protocol.TERMINAL_EVENTS == ("result", "error")
        assert protocol.error_event("boom", job_id=2)["type"] == "error"

    def test_encode_event_is_one_sorted_json_line(self):
        line = protocol.encode_event({"b": 1, "a": 2})
        assert line == b'{"a": 2, "b": 1}\n'
        assert json.loads(line) == {"a": 2, "b": 1}

    def test_anonymous_names_are_content_derived(self):
        first = protocol.anonymous_name(".model x\n")
        assert first == protocol.anonymous_name(".model x\n")
        assert first != protocol.anonymous_name(".model y\n")
        assert first.startswith("g-") and len(first) == 14
