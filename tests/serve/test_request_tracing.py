"""The daemon traces a request's worker only when something reads it.

A streamed request sends the worker's spans as ``stage`` events and a
``--trace`` directory writes them to a file; a plain request's reply
carries neither, so its worker runs untraced.  The reply itself does
not depend on it.
"""

import json
import os

import pytest

from repro import obs
from repro.serve import ServeClient


@pytest.fixture
def activations(monkeypatch):
    """The tracers the daemon activates, in order."""
    seen = []
    real = obs.activated

    def recording(tracer):
        seen.append(tracer)
        return real(tracer)

    monkeypatch.setattr(obs, "activated", recording)
    return seen


def stable(result):
    return json.dumps(result["stable"], sort_keys=True)


def test_plain_request_runs_untraced_with_the_streamed_reply(
        make_daemon, activations):
    plain = ServeClient(port=make_daemon().port).check(entry="vme_read")
    assert plain["status"] == "ok" and not plain["cached"]
    assert activations == []

    events = list(ServeClient(port=make_daemon().port)
                  .check_stream(entry="vme_read"))
    assert len(activations) == 1
    streamed = events[-1]
    assert streamed["type"] == "result" and not streamed["cached"]
    assert stable(plain) == stable(streamed)
    stages = {event["stage"] for event in events
              if event["type"] == "stage"}
    assert {"queue_wait", "entry", "check"} <= stages


def test_plain_request_is_traced_into_a_trace_directory(
        make_daemon, activations, tmp_path):
    trace_dir = tmp_path / "traces"
    daemon = make_daemon(trace_dir=str(trace_dir))
    result = ServeClient(port=daemon.port).check(entry="handshake")
    assert result["status"] == "ok"
    assert len(activations) == 1
    (path,) = [os.path.join(trace_dir, name)
               for name in os.listdir(trace_dir)]
    with open(path, encoding="utf-8") as handle:
        names = {record.get("name") for record in map(json.loads, handle)}
    assert {"request", "queue_wait", "entry", "traversal"} <= names


def test_a_traced_request_spans_its_run_store_write(make_daemon, tmp_path):
    trace_dir = tmp_path / "traces"
    daemon = make_daemon(trace_dir=str(trace_dir))
    events = list(ServeClient(port=daemon.port)
                  .check_stream(entry="handshake"))
    assert events[-1]["type"] == "result" and not events[-1]["cached"]
    (path,) = [os.path.join(trace_dir, name)
               for name in os.listdir(trace_dir)]
    with open(path, encoding="utf-8") as handle:
        spans = [record for record in map(json.loads, handle)
                 if record.get("type") == "span"]
    (request,) = [span for span in spans if span["name"] == "request"]
    (put,) = [span for span in spans if span["name"] == "runstore.put"]
    assert put["parent"] == request["id"]
