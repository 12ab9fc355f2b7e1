#!/usr/bin/env python
"""The perf ledger: kernel rows, tracing cost, BDD-cache sweep and the
serve daemon, written to one ``BENCH.json``::

    python tools/bench.py --quick                  # the CI subset
    python tools/bench.py                          # the full row set
    python tools/bench.py --before old.json        # embed a baseline run

The ledger (``"schema": 2``) has four sections:

* ``kernel`` -- one row per Table-1 corpus entry, built-in example or
  ``family@scale`` instance, each the fastest of :data:`REPEATS`
  pipeline runs with every check (liveness included).  Every time in a
  row comes from the run's own :mod:`repro.obs` trace: ``wall_s`` is
  the root span, ``stages`` maps each stage of
  :func:`repro.obs.report.stage_breakdown` (``ordering``, ``encoding``,
  ``traversal``, ``closure``, ``check:<name>``) to its self-time, and
  ``unattributed_s`` is the root's own self-time, so the stages plus
  ``unattributed_s`` sum to ``wall_s``.  ``stages.traversal`` is the
  forward fixpoint alone.  The hit rate is the traversal span's BDD
  operation-cache delta; the work counters come from the
  :class:`~repro.core.stats.TraversalStats`.
* ``tracing`` -- the observability layer's own cost: the no-op span
  nanoseconds, and the disabled-path and enabled-path overhead of a
  pipeline run (disabled must stay under 2%).
* ``bdd_cache`` -- one ``batch-check`` sweep timed against a cold and
  then a warm ``--bdd-cache`` store.
* ``serve`` -- a real ``python -m repro serve`` daemon under
  :data:`SERVE_CLIENTS` concurrent clients: a cold round of distinct
  specifications, the same requests again warm, and the edit loop (one
  large base, one-signal edits re-checked cold and with ``base=``).
  The tool exits non-zero unless the daemon's own counters prove that
  every cold request missed both stores, every warm request hit the
  RunStore and every delta edit seeded the traversal.

A run captured earlier can be embedded under ``"before"`` with
``--before`` so one committed file shows the trajectory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro import corpus, obs  # noqa: E402
from repro.api.checks import ALL, resolve_checks, run_checks  # noqa: E402
from repro.core.pipeline import VerificationPipeline  # noqa: E402
from repro.obs.report import (  # noqa: E402
    cache_breakdown,
    stage_breakdown,
    trace_wall_s,
)
from repro.serve import ServeClient  # noqa: E402
from repro.stg.generators import build_example  # noqa: E402
from repro.stg.parser import parse_g  # noqa: E402
from repro.stg.stg import SignalKind  # noqa: E402
from repro.stg.writer import to_g_string  # noqa: E402

SCHEMA = 2

#: Kernel rows and the tracing row report the fastest of this many runs.
REPEATS = 3

#: Kernel rows: corpus entries, built-in examples and ``family@scale``
#: instances.  The quick set is the CI subset: ``random_parallel@5`` is
#: the non-USC CSC violator, ``fake_conflict_d1`` deadlocks, is not
#: reversible and has fake conflicts, so the deadlock and commutativity
#: fallbacks have a row.  ``mutex@6`` is the largest quick row that is
#: not a marked graph, so its liveness check runs the reversibility
#: closure that a live marked graph decides from its structure.  The
#: full set adds the scales where the traversal genuinely dominates
#: (seconds, not milliseconds).
QUICK_ROWS = (
    "vme_read",
    "master_read_2",
    "muller_pipeline_4",
    "mutex3",
    "fake_conflict_d1",
    "muller_pipeline@16",
    "master_read@8",
    "parallel_handshakes@10",
    "random_parallel@5",
    "mutex@6",
)
FULL_ROWS = QUICK_ROWS + (
    "muller_pipeline@24",
    "muller_pipeline@32",
    "master_read@12",
    "parallel_handshakes@16",
    "random_parallel@8",
)

#: The sweep timed cold-vs-warm against a ``--bdd-cache`` store.  No
#: ``--cache-dir`` result store is involved, so the warm run's only
#: advantage is the persisted reachable BDDs.  Naming one cheap corpus
#: entry keeps batch-check from defaulting to the whole corpus, so the
#: measurement is the family scale sweep it claims to be; the default
#: check set (everything but the liveness extras, whose backward
#: closure dwarfs the forward traversal at large scales) keeps the
#: comparison about the traversal.
_DEFAULT_CHECKS = ("--checks", "consistency,safeness,persistency,"
                               "fake_conflicts,csc,reducibility")
QUICK_SWEEP = ("handshake", "--family", "muller_pipeline:12-18",
               *_DEFAULT_CHECKS)
FULL_SWEEP = ("handshake", "--family", "muller_pipeline:16-24",
              *_DEFAULT_CHECKS)

#: The serve rounds: concurrent clients, requests per client and round,
#: and daemon workers.
SERVE_CLIENTS = 8
SERVE_REQUESTS_PER_CLIENT = 3
SERVE_JOBS = 4
#: Corpus entries the cold and warm rounds cycle through -- a mix of
#: cheap and mid-size specifications.
SERVE_ENTRIES = ("handshake", "vme_read", "mutex_element", "sbuf_send_ctl",
                 "master_read_2", "muller_pipeline_4", "random_ring_n4_s1",
                 "random_ring_n6_s3")
#: Scale of the edit-loop base -- large enough that a cold re-check
#: costs real traversal time, so the seeded speedup is not noise.
EDIT_LOOP_SCALE = 18
#: Distinct one-signal edits re-checked against the base, each way.
EDIT_LOOP_EDITS = 6
#: The daemon counters committed with the serve section.
SERVE_COUNTERS = ("serve.requests", "serve.runstore.hits",
                  "serve.runstore.misses", "serve.bdd.hits",
                  "serve.bdd.misses", "serve.delta.requests",
                  "serve.bdd.delta_seeds", "serve.bdd.delta_colds")

_LISTENING = re.compile(r"listening on http://([0-9.]+):(\d+)")


# ----------------------------------------------------------------------
# Kernel rows and the tracing row
# ----------------------------------------------------------------------
def build_row_stg(row: str):
    """A row is ``family@scale``, a corpus entry or a built-in example."""
    if "@" in row:
        family, _, scale = row.partition("@")
        return build_example(family, int(scale))
    if row in corpus.names():
        return parse_g(corpus.entry(row).g_text, name=row)
    return build_example(row)


def traced_run(stg, sink):
    """One pipeline run with every check, under a root ``entry`` span.

    Returns ``(wall_s, pipeline)``.  With ``sink=None`` the run is
    untraced -- the instrumentation stays on its no-op path -- and the
    root span only reads the clock.
    """
    with obs.tracing(name=stg.name, sink=sink):
        with obs.timed("entry", entry=stg.name) as root:
            pipeline = VerificationPipeline(stg)
            run_checks(pipeline, resolve_checks(ALL), "symbolic")
    return root.duration_s, pipeline


def row_times(records) -> dict:
    """``wall_s``, per-stage self-times and ``unattributed_s`` of a trace.

    Self-times telescope (:mod:`repro.obs.report`), so the stages plus
    the root span's own self-time, ``unattributed_s``, sum to the root
    span's duration, ``wall_s``.
    """
    stages = {label: entry["self_s"] for label, entry
              in sorted(stage_breakdown(records).items())}
    unattributed_s = stages.pop("entry")
    return {"wall_s": trace_wall_s(records), "stages": stages,
            "unattributed_s": unattributed_s}


def kernel_row(row: str) -> dict:
    """The fastest of :data:`REPEATS` traced runs of one row."""
    stg = build_row_stg(row)
    runs = []
    for _ in range(REPEATS):
        sink = obs.InMemorySink()
        wall_s, pipeline = traced_run(stg, sink)
        runs.append((wall_s, sink.records))
    records = min(runs, key=lambda run: run[0])[1]
    # Every repeat does the same work, so any run's counters will do.
    stats = pipeline.traversal_stats.to_dict()
    return {
        "name": row,
        **row_times(records),
        "cache_hit_rate": cache_breakdown(records)["traversal"]["hit_rate"],
        "iterations": stats["iterations"],
        "images": stats["images_computed"],
        "bdd_peak": stats["peak_nodes"],
        "bdd_final": stats["final_nodes"],
        "states": stats["num_states"],
        "peak_live_nodes": stats["peak_live_nodes"],
    }


def tracing_overhead(row: str = "muller_pipeline_4",
                     noop_loops: int = 200_000) -> dict:
    """The cost of the observability layer itself.

    * ``noop_span_ns`` -- per-call cost of ``obs.span(...)`` with no
      tracer active (one ContextVar read and a None test);
    * ``disabled_overhead_pct`` -- that cost times the number of
      records one traced run emits, as a share of the untraced wall
      time: what the instrumentation adds when tracing is off (the <2%
      contract);
    * ``enabled_overhead_pct`` -- the traced (in-memory sink) run
      against the untraced one, fastest of :data:`REPEATS` each.
    """
    stg = build_row_stg(row)
    disabled_s = min(traced_run(stg, None)[0] for _ in range(REPEATS))
    enabled = []
    for _ in range(REPEATS):
        sink = obs.InMemorySink()
        enabled.append((traced_run(stg, sink)[0], len(sink.records)))
    enabled_s, emissions = min(enabled)

    start = time.perf_counter()
    for _ in range(noop_loops):
        with obs.span("bench-noop"):
            pass
    noop_span_ns = (time.perf_counter() - start) / noop_loops * 1e9
    return {
        "row": row,
        "noop_span_ns": round(noop_span_ns, 1),
        "emission_sites": emissions,
        "disabled_s": round(disabled_s, 4),
        "enabled_s": round(enabled_s, 4),
        "disabled_overhead_pct": round(
            emissions * noop_span_ns * 1e-9 / disabled_s * 100.0, 4),
        "enabled_overhead_pct": round(
            (enabled_s - disabled_s) / disabled_s * 100.0, 2),
    }


# ----------------------------------------------------------------------
# The BDD-cache sweep
# ----------------------------------------------------------------------
def repro_environment() -> dict:
    """The environment of a ``python -m repro`` subprocess of this tree."""
    environment = dict(os.environ)
    environment["PYTHONPATH"] = (
        os.path.join(REPO_ROOT, "src")
        + (os.pathsep + environment["PYTHONPATH"]
           if environment.get("PYTHONPATH") else ""))
    return environment


def batch_check_seconds(arguments, workdir) -> float:
    """Wall time of one ``python -m repro batch-check ...`` subprocess."""
    command = [sys.executable, "-m", "repro", "batch-check", *arguments]
    start = time.perf_counter()
    completed = subprocess.run(
        command, env=repro_environment(), cwd=workdir,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    elapsed = time.perf_counter() - start
    if completed.returncode != 0:
        print(completed.stdout)
        raise SystemExit(f"bench: {' '.join(command)} exited "
                         f"{completed.returncode}")
    return elapsed


def bdd_cache_sweep(sweep_arguments) -> dict:
    """Time the same sweep against a cold and then a warm BDD store."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as workdir:
        arguments = [*sweep_arguments, "--bdd-cache",
                     os.path.join(workdir, "bdd-store")]
        cold_s = batch_check_seconds(arguments, workdir)
        warm_s = batch_check_seconds(arguments, workdir)
    return {
        "sweep": " ".join(sweep_arguments),
        "cold_s": round(cold_s, 3),
        "warm_s": round(warm_s, 3),
        "speedup": round(cold_s / warm_s, 2),
    }


# ----------------------------------------------------------------------
# The serve daemon
# ----------------------------------------------------------------------
def cold_requests():
    """The cold round's ``(name, g_text)`` requests, client by client.

    Client ``c``'s ``r``-th request checks ``SERVE_ENTRIES[(c + r) %
    len(SERVE_ENTRIES)]`` under a ``.model`` name of its own, so no two
    requests share content.  Renaming only the task would not do: the
    BDD store keys on the canonical text, whose ``.model`` line names
    the specification, so a shared text would let one request's
    reachable set serve the next.  The warm round sends the same list.
    """
    requests = []
    for client in range(SERVE_CLIENTS):
        for index in range(SERVE_REQUESTS_PER_CLIENT):
            entry = SERVE_ENTRIES[(client + index) % len(SERVE_ENTRIES)]
            name = f"{entry}_r{len(requests)}"
            text = re.sub(r"^\.model .*$", f".model {name}",
                          corpus.entry(entry).g_text, count=1,
                          flags=re.MULTILINE)
            requests.append((name, text))
    return requests


def edit_loop_specs():
    """The base text and the cold and delta one-signal edit variants.

    Every variant keeps the base's ``.model`` name (a re-checked saved
    file) and adds a disconnected two-phase cycle of a fresh internal
    signal -- the seed-tier shape, where the daemon extends the base's
    reachable set instead of traversing from the initial state.
    """
    base = to_g_string(build_example("muller_pipeline", EDIT_LOOP_SCALE))

    def variant(signal):
        stg = parse_g(base)
        rising, falling = f"{signal}+", f"{signal}-"
        p0, p1 = f"p_{signal}0", f"p_{signal}1"
        stg.add_signal(signal, SignalKind.INTERNAL, initial_value=False)
        stg.add_place(p0, tokens=1)
        stg.add_place(p1)
        stg.add_transition(rising)
        stg.add_transition(falling)
        for arc in ((p0, rising), (rising, p1),
                    (p1, falling), (falling, p0)):
            stg.add_arc(*arc)
        return to_g_string(stg)

    colds = [variant(f"cold{index}") for index in range(EDIT_LOOP_EDITS)]
    deltas = [variant(f"edit{index}") for index in range(EDIT_LOOP_EDITS)]
    return base, colds, deltas


def percentile(sorted_values, fraction):
    """Nearest-rank percentile of an already-sorted latency list."""
    rank = round(fraction * (len(sorted_values) - 1))
    return sorted_values[rank]


def summarise(latencies) -> dict:
    return {
        "requests": len(latencies),
        "p50_ms": round(percentile(latencies, 0.50) * 1000, 3),
        "p99_ms": round(percentile(latencies, 0.99) * 1000, 3),
        "max_ms": round(latencies[-1] * 1000, 3),
        "total_s": round(sum(latencies), 3),
    }


def timed_check(client, **request) -> "tuple[float, dict]":
    """``(seconds, result)`` of one check request; exits unless ok."""
    start = time.perf_counter()
    result = client.check(**request)
    elapsed = time.perf_counter() - start
    if result["status"] != "ok":
        raise SystemExit(f"bench: serve request {request.get('name')!r} "
                         f"ended {result['status']}")
    return elapsed, result


def run_round(client, requests):
    """Send ``requests`` from :data:`SERVE_CLIENTS` concurrent clients,
    each its own consecutive slice; returns the sorted latencies."""
    def client_run(chunk):
        return [timed_check(client, g_text=text, name=name)[0]
                for name, text in chunk]

    size = SERVE_REQUESTS_PER_CLIENT
    chunks = [requests[start:start + size]
              for start in range(0, len(requests), size)]
    with ThreadPoolExecutor(max_workers=SERVE_CLIENTS) as pool:
        per_client = list(pool.map(client_run, chunks))
    return sorted(latency for chunk in per_client for latency in chunk)


def run_edit_loop(client):
    """The sequential editor loop: base check, then cold vs delta edits.

    Returns ``(cold_latencies, delta_latencies)``, both sorted; exits
    if any delta re-check fails to engage the seed tier (a delta number
    that silently measured a cold traversal would be meaningless).
    """
    base, colds, deltas = edit_loop_specs()
    timed_check(client, g_text=base, name="editloop-base", checks=["csc"])
    cold_latencies = [
        timed_check(client, g_text=text, name=f"editloop-cold{index}",
                    checks=["csc"])[0]
        for index, text in enumerate(colds)]
    delta_latencies = []
    for index, text in enumerate(deltas):
        elapsed, result = timed_check(
            client, g_text=text, name=f"editloop-edit{index}",
            checks=["csc"], base="editloop-base")
        delta = result["entry"]["report"]["delta"]
        if not delta or delta["tier"] != "seed":
            raise SystemExit(f"bench: delta edit {index} did not seed: "
                             f"{delta}")
        delta_latencies.append(elapsed)
    return sorted(cold_latencies), sorted(delta_latencies)


def daemon_counters(client) -> dict:
    metrics = client.metrics()["metrics"]
    return {name: metrics[name]["value"] for name in SERVE_COUNTERS}


def require_rises(before, after, expected) -> None:
    """Exit unless each counter in ``expected`` rose by exactly that."""
    for name, rise in expected.items():
        if after[name] - before[name] != rise:
            raise SystemExit(f"bench: {name} rose by "
                             f"{after[name] - before[name]}, not {rise}")


def drive_daemon(client) -> dict:
    """The cold and warm rounds and the edit loop, checked by counters."""
    requests = cold_requests()
    start = daemon_counters(client)
    cold = run_round(client, requests)
    after_cold = daemon_counters(client)
    require_rises(start, after_cold, {"serve.runstore.misses": len(requests),
                                      "serve.bdd.misses": len(requests)})
    warm = run_round(client, requests)
    after_warm = daemon_counters(client)
    require_rises(after_cold, after_warm,
                  {"serve.runstore.hits": len(requests)})
    cold_edits, delta_edits = run_edit_loop(client)
    counters = daemon_counters(client)
    require_rises(after_warm, counters,
                  {"serve.bdd.delta_seeds": EDIT_LOOP_EDITS})
    rounds = {"cold": summarise(cold), "warm": summarise(warm)}
    return {
        "clients": SERVE_CLIENTS,
        "requests_per_client": SERVE_REQUESTS_PER_CLIENT,
        "jobs": SERVE_JOBS,
        "entries": list(SERVE_ENTRIES),
        "rounds": rounds,
        "speedup_p50": round(rounds["cold"]["p50_ms"]
                             / rounds["warm"]["p50_ms"], 1),
        "edit_loop": {
            "scale": EDIT_LOOP_SCALE,
            "edits": EDIT_LOOP_EDITS,
            "cold": summarise(cold_edits),
            "delta": summarise(delta_edits),
            "speedup_p50": round(percentile(cold_edits, 0.50)
                                 / percentile(delta_edits, 0.50), 1),
        },
        "daemon_counters": counters,
    }


def serve_section() -> dict:
    """Boot ``python -m repro serve`` on a fresh state directory, drive
    it, and shut it down drained."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as state_dir, \
            subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--jobs", str(SERVE_JOBS), "--state-dir", state_dir],
                env=repro_environment(), cwd=REPO_ROOT,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True) as process:
        try:
            line = process.stdout.readline()
            match = _LISTENING.search(line)
            if not match:
                raise SystemExit(f"bench: daemon failed to start: {line!r}")
            client = ServeClient(host=match.group(1),
                                 port=int(match.group(2)))
            section = drive_daemon(client)
            client.shutdown()
            process.wait(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
    return section


# ----------------------------------------------------------------------
# The command line
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the perf ledger and write BENCH.json")
    parser.add_argument("--quick", action="store_true",
                        help="the CI subset of kernel rows and sweep scales")
    parser.add_argument("--output", metavar="PATH",
                        default=os.path.join(REPO_ROOT, "BENCH.json"),
                        help="where to write the ledger (default: "
                             "BENCH.json in the repo root)")
    parser.add_argument("--before", metavar="PATH",
                        help="embed a previously captured ledger under "
                             "'before'")
    arguments = parser.parse_args(argv)

    rows = QUICK_ROWS if arguments.quick else FULL_ROWS
    report = {"schema": SCHEMA, "quick": arguments.quick,
              "python": platform.python_version(), "kernel": []}
    print(f"bench: {len(rows)} kernel rows, every check ...")
    for row in rows:
        result = kernel_row(row)
        report["kernel"].append(result)
        print(f"  {row:<24} wall={result['wall_s']:8.4f}s "
              f"traversal={result['stages']['traversal']:8.4f}s "
              f"unattributed={result['unattributed_s']:.4f}s "
              f"iters={result['iterations']:<4} "
              f"hit-rate={result['cache_hit_rate']}")

    print("bench: tracing overhead ...")
    tracing = report["tracing"] = tracing_overhead()
    print(f"  noop-span={tracing['noop_span_ns']}ns "
          f"disabled={tracing['disabled_overhead_pct']}% "
          f"enabled={tracing['enabled_overhead_pct']}%")

    sweep = QUICK_SWEEP if arguments.quick else FULL_SWEEP
    print(f"bench: cold vs warm --bdd-cache sweep ({' '.join(sweep)}) ...")
    bdd_cache = report["bdd_cache"] = bdd_cache_sweep(sweep)
    print(f"  cold={bdd_cache['cold_s']}s warm={bdd_cache['warm_s']}s "
          f"speedup={bdd_cache['speedup']}x")

    print(f"bench: serve daemon, {SERVE_CLIENTS} clients x "
          f"{SERVE_REQUESTS_PER_CLIENT} requests, cold vs warm, then the "
          f"edit loop (muller_pipeline@{EDIT_LOOP_SCALE}, "
          f"{EDIT_LOOP_EDITS} edits) ...")
    serve = report["serve"] = serve_section()
    for label, latencies in (("cold", serve["rounds"]["cold"]),
                             ("warm", serve["rounds"]["warm"]),
                             ("edit cold", serve["edit_loop"]["cold"]),
                             ("edit delta", serve["edit_loop"]["delta"])):
        print(f"  {label:<10} p50 {latencies['p50_ms']:9.3f} ms   "
              f"p99 {latencies['p99_ms']:9.3f} ms")
    print(f"  p50 speedup: warm {serve['speedup_p50']}x, "
          f"delta {serve['edit_loop']['speedup_p50']}x")

    if arguments.before:
        with open(arguments.before, encoding="utf-8") as handle:
            report["before"] = json.load(handle)
    with open(arguments.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"bench: wrote {arguments.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
