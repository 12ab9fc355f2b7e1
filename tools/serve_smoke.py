#!/usr/bin/env python
"""End-to-end smoke test of the ``repro.serve`` daemon as a subprocess.

The CI serve job and ``make serve-smoke`` run this script.  It boots a
real ``python -m repro serve`` process and walks the whole lifecycle:

1. ``/healthz`` answers ``ok``;
2. a cold streamed check emits the full event ladder
   (``queued`` -> ``running`` -> stage events, ``queue_wait`` and
   ``entry`` among them -> ``result``);
3. the warm repeat of the same request is served from the run store
   (``cached`` true, byte-identical stable verdict);
4. a raw ``.g``-text request round-trips;
5. ``/metrics`` exposes the documented counters and proves the warm
   repeat hit the cache (``serve.runstore.hits >= 1``);
6. ``POST /shutdown`` drains the daemon, which exits 0 and reports
   "drained and stopped";
7. a second daemon answers the same check cold without streaming (its
   worker runs untraced) with the streamed check's stable verdict.

Exit status: 0 when every step holds, 1 (via SystemExit) otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO_ROOT not in sys.path:  # run as a script, tools/ is sys.path[0]
    sys.path.insert(0, REPO_ROOT)

from tools.repro_process import serve_daemon  # noqa: E402

RAW_G_TEXT = """.model smoke_toggle
.inputs a
.outputs b
.graph
a+ b+
b+ a-
a- b-
b- a+
.marking { <b-,a+> }
.initial_values a=0 b=0
.end
"""

#: Counters/gauges the smoke test requires in a /metrics scrape.
REQUIRED_METRICS = (
    "serve.requests", "serve.rejected",
    "serve.runstore.hits", "serve.runstore.misses",
    "serve.bdd.hits", "serve.bdd.misses",
    "serve.queue.depth", "serve.uptime.seconds",
    "serve.request.seconds", "serve.entry.seconds",
)


def fail(message):
    raise SystemExit(f"serve-smoke: FAIL: {message}")


def walk_lifecycle(client):
    """Steps 1-5 against a running daemon; returns the cold streamed
    result."""
    health = client.health()
    if health.get("status") != "ok":
        fail(f"/healthz reported {health}")
    print("serve-smoke: /healthz ok")

    events = list(client.check_stream(entry="handshake"))
    kinds = [event["type"] for event in events]
    if kinds[:2] != ["queued", "running"] or kinds[-1] != "result":
        fail(f"cold stream event ladder wrong: {kinds}")
    stages = {event["stage"] for event in events
              if event["type"] == "stage"}
    if not {"queue_wait", "entry"} <= stages:
        fail(f"cold stream lacks queue_wait/entry stage events: "
             f"{sorted(stages)}")
    cold = events[-1]
    if cold["status"] != "ok" or cold["cached"]:
        fail(f"cold handshake check not ok/uncached: {cold['status']}, "
             f"cached={cold['cached']}")
    print(f"serve-smoke: cold check ok "
          f"({len(events)} events, {kinds.count('stage')} stages)")

    warm = client.check(entry="handshake")
    if not warm["cached"]:
        fail("warm repeat was not served from the run store")
    if stable(warm) != stable(cold):
        fail("warm stable verdict differs from cold")
    print("serve-smoke: warm repeat cached, stable verdict identical")

    raw = client.check(g_text=RAW_G_TEXT, name="smoke_toggle")
    if raw["status"] != "ok":
        fail(f"raw g_text check failed: {raw}")
    print("serve-smoke: raw .g text check ok")

    metrics = client.metrics()["metrics"]
    missing = [name for name in REQUIRED_METRICS if name not in metrics]
    if missing:
        fail(f"/metrics is missing {missing}")
    hits = metrics["serve.runstore.hits"]["value"]
    if hits < 1:
        fail(f"serve.runstore.hits is {hits}; warm repeat not proven")
    print(f"serve-smoke: /metrics ok ({len(metrics)} series, "
          f"runstore hits {hits})")
    return cold


def stable(result):
    return json.dumps(result["stable"], sort_keys=True)


def check_plain_cold(client, streamed):
    """Step 7: a cold check without streaming, against the streamed one."""
    plain = client.check(entry="handshake")
    if plain["status"] != "ok" or plain["cached"]:
        fail(f"cold plain handshake check not ok/uncached: "
             f"{plain['status']}, cached={plain['cached']}")
    if stable(plain) != stable(streamed):
        fail("plain cold stable verdict differs from the streamed one")
    print("serve-smoke: plain cold check ok, stable verdict identical")


def main():
    with serve_daemon("serve-smoke", "--jobs", "2") as client:
        print(f"serve-smoke: daemon up on {client.host}:{client.port}")
        streamed = walk_lifecycle(client)
        client.shutdown()
        process = client.process
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            fail("daemon did not exit after /shutdown")
        tail = process.stdout.read()
    if process.returncode != 0:
        fail(f"daemon exited {process.returncode}: {tail}")
    if "drained and stopped" not in tail:
        fail(f"daemon shutdown message missing: {tail!r}")
    print("serve-smoke: daemon drained and exited 0")
    with serve_daemon("serve-smoke", "--jobs", "1") as client:
        check_plain_cold(client, streamed)
    print("serve-smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
