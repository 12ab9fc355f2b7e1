#!/usr/bin/env python
"""The perf ledger: kernel rows, tracing cost, BDD-cache sweep and the
serve daemon, written to one ``BENCH.json``::

    python tools/bench.py --quick                  # the CI subset
    python tools/bench.py                          # the full row set
    python tools/bench.py --before old.json        # embed a baseline run
    python tools/bench.py --compare old.json       # BENCH.json vs old.json

The ledger (``"schema": 2``) has four sections:

* ``kernel`` -- one row per Table-1 corpus entry, built-in example or
  ``family@scale`` instance, each the median of
  :data:`ALTERNATING_REPEATS` pipeline runs with every check (liveness
  included).  The runs alternate: each repeat runs every row once, so
  a machine that slows down for a while slows every row alike.  Every
  time in a row comes from its median run's own :mod:`repro.obs`
  trace: ``wall_s`` is the root span, ``stages`` maps each stage of
  :func:`repro.obs.report.stage_breakdown` (``ordering``, ``encoding``,
  ``traversal``, ``closure``, ``check:<name>``) to its self-time, and
  ``unattributed_s`` is the root's own self-time, so the stages plus
  ``unattributed_s`` sum to ``wall_s``.  ``wall_s_range`` and
  ``stage_ranges`` hold the min-max of the same figures over all the
  runs.  Every one of these times is calibrated: perfbench's
  calibration kernel (:mod:`perfbench.calibrate`) is timed before and
  after each repeat, and the repeat's times are divided by the
  slowdown it measures against ``REFERENCE_S``; ``calibration_factor``
  is the row's median slowdown.  ``stages.traversal`` is the
  forward fixpoint alone.  The hit rate is the traversal span's BDD
  operation-cache delta; ``event_span`` is the mean span of a forward
  event (a transition's places and signal) under the run's variable
  order, as the ``ordering`` span records it; the work counters come
  from the :class:`~repro.core.stats.TraversalStats`, among them
  ``cache_lookups``, the traversal's BDD operation-cache probes.  A
  ``family@scale`` row is parsed from its ``.g`` text, like every
  other entry point parses it.
* ``tracing`` -- the observability layer's own cost: the no-op span
  nanoseconds, and the disabled-path and enabled-path overhead of a
  pipeline run (disabled must stay under 2%).  The enabled overhead
  is the median of :data:`ALTERNATING_REPEATS` repeats, each the
  median of :data:`TRACING_PAIRS` back-to-back untraced/traced pairs,
  with the repeats' min-max beside it.
* ``bdd_cache`` -- one ``batch-check`` sweep timed against a fresh
  and against a warm ``--bdd-cache`` store, alternating, over
  :data:`ALTERNATING_REPEATS` pairs: the median speedup and its
  min-max.
* ``serve`` -- a real ``python -m repro serve`` daemon under
  :data:`SERVE_CLIENTS` concurrent clients: a cold round of distinct
  specifications, the same requests again warm, and the edit loop (one
  large base, one-signal edits re-checked cold and with ``base=``; the
  delta p50 of the first and of the last ten edits shows whether a
  re-check's cost grows with the edits stored before it).
  The tool exits non-zero unless the daemon's own counters prove that
  every cold request missed both stores, every warm request hit the
  RunStore and every delta edit seeded the traversal.

A run captured earlier can be embedded under ``"before"`` with
``--before`` so one committed file shows the trajectory.  ``--compare
OLD`` runs nothing: for each kernel row present in both ``OLD`` and the
ledger at ``--output``, it prints the change in ``wall_s``, in each
stage's self-time and in the traversal's lookups, then the same sums
over those rows.  Beside a row's change it prints both ledgers'
min-max ranges where both have them, and marks the change ``noise``
when the two ranges overlap.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO_ROOT not in sys.path:  # run as a script, tools/ is sys.path[0]
    sys.path.insert(0, REPO_ROOT)

from perfbench.calibrate import BURST, REFERENCE_S, kernel_seconds  # noqa: E402
from tools.repro_process import repro_environment, serve_daemon  # noqa: E402

from repro import corpus, obs  # noqa: E402
from repro.api.checks import ALL, resolve_checks, run_checks  # noqa: E402
from repro.core.pipeline import VerificationPipeline  # noqa: E402
from repro.obs.report import (  # noqa: E402
    cache_breakdown,
    stage_breakdown,
    trace_wall_s,
)
from repro.stg.generators import build_example  # noqa: E402
from repro.stg.parser import parse_g  # noqa: E402
from repro.stg.stg import SignalKind  # noqa: E402
from repro.stg.writer import to_g_string  # noqa: E402

SCHEMA = 2

#: The kernel, tracing and BDD-cache rows report the median of this
#: many alternating repeats and their min-max.
ALTERNATING_REPEATS = 5
#: Untraced/traced run pairs per tracing repeat.  One pipeline run of
#: the row takes about a millisecond and a shared VM drifts by tens of
#: percent over seconds, so each repeat is the median of many adjacent
#: pairs: both halves of a pair see the same speed.
TRACING_PAIRS = 100

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
#: comparison about the traversal.  The scales are large enough that
#: the traversals, not the interpreter's start, set the speedup.
_DEFAULT_CHECKS = ("--checks", "consistency,safeness,persistency,"
                               "fake_conflicts,csc,reducibility")
QUICK_SWEEP = ("handshake", "--family", "muller_pipeline:36-44",
               *_DEFAULT_CHECKS)
FULL_SWEEP = ("handshake", "--family", "muller_pipeline:40-56",
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
#: Distinct one-signal edits re-checked against the base, each way:
#: enough that the first and the last :data:`EDIT_LOOP_WINDOW` delta
#: re-checks run beside a short and a long edit history.
EDIT_LOOP_EDITS = 30
EDIT_LOOP_WINDOW = 10
#: The daemon counters committed with the serve section.
SERVE_COUNTERS = ("serve.requests", "serve.runstore.hits",
                  "serve.runstore.misses", "serve.bdd.hits",
                  "serve.bdd.misses", "serve.delta.requests",
                  "serve.bdd.delta_seeds", "serve.bdd.delta_colds")


# ----------------------------------------------------------------------
# Kernel rows and the tracing row
# ----------------------------------------------------------------------
def build_row_stg(row: str):
    """A row is ``family@scale``, a corpus entry or a built-in example.

    A ``family@scale`` row is parsed from its ``.g`` text, as
    ``batch-check``, the daemon and perfbench parse it, so the row
    measures the net users verify, not the generator's in-memory one.
    """
    if "@" in row:
        family, _, scale = row.partition("@")
        return parse_g(to_g_string(build_example(family, int(scale))))
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


def row_times(records, factor: float) -> dict:
    """``wall_s``, per-stage self-times and ``unattributed_s`` of a trace,
    each divided by the machine's slowdown ``factor``.

    Self-times telescope (:mod:`repro.obs.report`), so the stages plus
    the root span's own self-time, ``unattributed_s``, sum to the root
    span's duration, ``wall_s``.
    """
    stages = {label: entry["self_s"] / factor for label, entry
              in sorted(stage_breakdown(records).items())}
    unattributed_s = stages.pop("entry")
    return {"wall_s": trace_wall_s(records) / factor, "stages": stages,
            "unattributed_s": unattributed_s}


def event_span(records) -> float:
    """The mean forward-event span of the run's variable order, as its
    ``ordering`` span recorded it."""
    ordering = next(record for record in records
                    if record.get("type") == "span"
                    and record.get("name") == "ordering")
    return round(ordering["attrs"]["event_span"], 2)


def kernel_rows(rows) -> list:
    """One ledger row per name in ``rows``: each the median of
    :data:`ALTERNATING_REPEATS` traced runs, and their min-max.

    Every row first runs once untimed, so one-time set-up stays out of
    its min-max.  Each repeat then runs every row once, in ``rows``
    order, between two bursts of perfbench's calibration kernel.  The
    repeat's figures are divided by its slowdown, the median kernel
    time of both bursts over ``REFERENCE_S``, as perfbench calibrates
    its timings, so a row reads as on a machine where the kernel takes
    ``REFERENCE_S``.  The row's figures are those of its median run (by
    calibrated ``wall_s``), so its stages still sum to its wall time.
    """
    stgs = [(row, build_row_stg(row)) for row in rows]
    for _, stg in stgs:
        traced_run(stg, obs.InMemorySink())  # warm-up, untimed
    runs = {row: [] for row in rows}
    for _ in range(ALTERNATING_REPEATS):
        samples = [kernel_seconds() for _ in range(BURST)]
        repeat = []
        for row, stg in stgs:
            sink = obs.InMemorySink()
            wall_s, pipeline = traced_run(stg, sink)
            repeat.append((row, wall_s, sink.records, pipeline))
        samples += [kernel_seconds() for _ in range(BURST)]
        factor = statistics.median(samples) / REFERENCE_S
        for row, wall_s, records, pipeline in repeat:
            runs[row].append((wall_s / factor, records, pipeline, factor))
    return [kernel_summary(row, runs[row]) for row in rows]


def kernel_summary(row: str, runs) -> dict:
    """The row of ``runs``, ``(wall_s, records, pipeline, factor)``
    tuples of the same work, ``wall_s`` calibrated: the median run's
    figures, every run's min-max and the median slowdown factor."""
    _, records, pipeline, factor = sorted(
        runs, key=lambda run: run[0])[len(runs) // 2]
    times = [row_times(run[1], run[3]) for run in runs]
    stages = sorted({stage for figures in times
                     for stage in figures["stages"]})
    # Every run does the same work, so any run's counters will do.
    stats = pipeline.traversal_stats.to_dict()
    return {
        "name": row,
        **row_times(records, factor),
        "repeats": len(runs),
        "calibration_factor": round(
            statistics.median(run[3] for run in runs), 3),
        "wall_s_range": spread(figures["wall_s"] for figures in times),
        "stage_ranges": {stage: spread(figures["stages"].get(stage, 0.0)
                                       for figures in times)
                         for stage in stages},
        "cache_hit_rate": cache_breakdown(records)["traversal"]["hit_rate"],
        "event_span": event_span(records),
        "iterations": stats["iterations"],
        "images": stats["images_computed"],
        "bdd_peak": stats["peak_nodes"],
        "bdd_final": stats["final_nodes"],
        "states": stats["num_states"],
        "peak_live_nodes": stats["peak_live_nodes"],
        "cache_lookups": stats["cache_lookups"],
    }


def spread(values) -> list:
    """``[min, max]`` of some figures."""
    values = list(values)
    return [min(values), max(values)]


def tracing_overhead(row: str = "muller_pipeline_4",
                     noop_loops: int = 200_000) -> dict:
    """The cost of the observability layer itself.

    * ``noop_span_ns`` -- per-call cost of ``obs.span(...)`` with no
      tracer active (one ContextVar read and a None test);
    * ``disabled_overhead_pct`` -- that cost times the number of
      records one traced run emits, as a share of the median untraced
      wall time: what the instrumentation adds when tracing is off (the
      <2% contract);
    * ``enabled_overhead_pct`` -- the traced (in-memory sink) run
      against the untraced one: the median of
      :data:`ALTERNATING_REPEATS` repeats, each the median share of
      :data:`TRACING_PAIRS` adjacent untraced/traced pairs;
      ``enabled_overhead_pct_range`` is the repeats' min-max.
    """
    stg = build_row_stg(row)
    traced_run(stg, None)  # warm both paths up, untimed
    traced_run(stg, obs.InMemorySink())
    disabled, enabled, repeats = [], [], []
    for _ in range(ALTERNATING_REPEATS):
        shares = []
        for _ in range(TRACING_PAIRS):
            untraced_s = traced_run(stg, None)[0]
            sink = obs.InMemorySink()
            traced_s = traced_run(stg, sink)[0]
            disabled.append(untraced_s)
            enabled.append(traced_s)
            shares.append((traced_s - untraced_s) / untraced_s * 100.0)
        repeats.append(statistics.median(shares))
    emissions = len(sink.records)
    disabled_s = statistics.median(disabled)

    start = time.perf_counter()
    for _ in range(noop_loops):
        with obs.span("bench-noop"):
            pass
    noop_span_ns = (time.perf_counter() - start) / noop_loops * 1e9
    return {
        "row": row,
        "repeats": ALTERNATING_REPEATS,
        "pairs_per_repeat": TRACING_PAIRS,
        "noop_span_ns": round(noop_span_ns, 1),
        "emission_sites": emissions,
        "disabled_s": round(disabled_s, 4),
        "enabled_s": round(statistics.median(enabled), 4),
        "disabled_overhead_pct": round(
            emissions * noop_span_ns * 1e-9 / disabled_s * 100.0, 4),
        "enabled_overhead_pct": round(statistics.median(repeats), 2),
        "enabled_overhead_pct_range": [round(min(repeats), 2),
                                       round(max(repeats), 2)],
    }


# ----------------------------------------------------------------------
# The BDD-cache sweep
# ----------------------------------------------------------------------
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
    """Time the same sweep against a fresh and a warm BDD store.

    The warm store is filled by one untimed sweep.  Then each of
    :data:`ALTERNATING_REPEATS` pairs times a sweep against a new empty
    store and one against the warm store; ``speedup`` is the median of
    the pairs' cold/warm ratios and ``speedup_range`` their min-max.
    """
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as workdir:
        def sweep_seconds(store):
            return batch_check_seconds(
                [*sweep_arguments, "--bdd-cache",
                 os.path.join(workdir, store)], workdir)

        sweep_seconds("warm")
        pairs = [(sweep_seconds(f"cold-{index}"), sweep_seconds("warm"))
                 for index in range(ALTERNATING_REPEATS)]
    speedups = [cold_s / warm_s for cold_s, warm_s in pairs]
    return {
        "sweep": " ".join(sweep_arguments),
        "repeats": ALTERNATING_REPEATS,
        "cold_s": round(statistics.median(cold for cold, _ in pairs), 3),
        "warm_s": round(statistics.median(warm for _, warm in pairs), 3),
        "speedup": round(statistics.median(speedups), 2),
        "speedup_range": [round(min(speedups), 2), round(max(speedups), 2)],
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

    Returns ``(cold_latencies, delta_latencies)``, the cold ones sorted
    and the delta ones in the order they were sent; exits if any delta
    re-check fails to engage the seed tier (a delta number that
    silently measured a cold traversal would be meaningless).
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
    return sorted(cold_latencies), delta_latencies


def p50_ms(latencies) -> float:
    """The nearest-rank median of unsorted latencies, in milliseconds."""
    return round(percentile(sorted(latencies), 0.50) * 1000, 3)


def edit_loop_section(cold_edits, delta_edits) -> dict:
    """The ledger's edit-loop block, from the sorted cold latencies and
    the delta latencies in the order the edits were sent."""
    return {
        "scale": EDIT_LOOP_SCALE,
        "edits": EDIT_LOOP_EDITS,
        "cold": summarise(cold_edits),
        "delta": summarise(sorted(delta_edits)),
        "delta_p50_first_ten_ms": p50_ms(delta_edits[:EDIT_LOOP_WINDOW]),
        "delta_p50_last_ten_ms": p50_ms(delta_edits[-EDIT_LOOP_WINDOW:]),
        "speedup_p50": round(percentile(cold_edits, 0.50)
                             / percentile(sorted(delta_edits), 0.50), 1),
    }


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
        "edit_loop": edit_loop_section(cold_edits, delta_edits),
        "daemon_counters": counters,
    }


def serve_section() -> dict:
    """Boot ``python -m repro serve`` on a fresh state directory, drive
    it, and shut it down drained."""
    with serve_daemon("bench", "--jobs", str(SERVE_JOBS)) as client:
        section = drive_daemon(client)
        client.shutdown()
        client.process.wait(timeout=30)
    return section


# ----------------------------------------------------------------------
# Comparing two ledgers
# ----------------------------------------------------------------------
def _stage_ms(row) -> dict:
    """Milliseconds of the whole row (``wall``) and of each stage."""
    figures = {"wall": row["wall_s"] * 1000}
    for stage, seconds in row["stages"].items():
        figures[stage] = seconds * 1000
    return figures


def _range_ms(row) -> dict:
    """The min-max milliseconds of ``wall`` and of each stage, for a
    row that records them (an empty mapping otherwise)."""
    if "wall_s_range" not in row:
        return {}
    ranges = {"wall": row["wall_s_range"], **row["stage_ranges"]}
    return {label: [seconds * 1000 for seconds in pair]
            for label, pair in ranges.items()}


def _delta_line(label, old, new, digits=3, ranges=(None, None)) -> str:
    """One figure's change; with both min-max ``ranges``, both are
    printed after it and an overlap is marked ``noise``."""
    if old is None or new is None:
        return f"  {label:<22} {'n/a':>10}"
    line = (f"  {label:<22} {old:10.{digits}f} -> {new:10.{digits}f} "
            f"{new - old:+10.{digits}f}")
    if old:
        line += f" ({(new - old) / old:+.1%})"
    old_range, new_range = ranges
    if old_range is not None and new_range is not None:
        line += "".join(f" [{low:.{digits}f}-{high:.{digits}f}]"
                        for low, high in ranges)
        if old_range[0] <= new_range[1] and new_range[0] <= old_range[1]:
            line += " noise"
    return line


def compare_ledgers(old: dict, new: dict) -> list:
    """The report of ``--compare``: one block per kernel row present in
    both ledgers (in ``new``'s order), then a ``total`` block summing
    each figure over those rows.  A stage a run never entered took 0
    ms; a lookup count missing from either ledger reads ``n/a``.  A
    row's figure gets both ledgers' ranges when both record them (the
    totals get none)."""
    before = {row["name"]: row for row in old.get("kernel", [])}
    lines = []
    times = {}
    lookups = [0, 0]
    for row in new.get("kernel", []):
        previous = before.get(row["name"])
        if previous is None:
            continue
        lines.append(row["name"])
        old_ms, new_ms = _stage_ms(previous), _stage_ms(row)
        old_ranges, new_ranges = _range_ms(previous), _range_ms(row)
        for label in ["wall"] + sorted((set(old_ms) | set(new_ms))
                                       - {"wall"}):
            pair = (old_ms.get(label, 0.0), new_ms.get(label, 0.0))
            ranges = (old_ranges.get(label, [0.0, 0.0]) if old_ranges
                      else None,
                      new_ranges.get(label, [0.0, 0.0]) if new_ranges
                      else None)
            lines.append(_delta_line(label, *pair, ranges=ranges))
            total = times.setdefault(label, [0.0, 0.0])
            total[0] += pair[0]
            total[1] += pair[1]
        pair = (previous.get("cache_lookups"), row.get("cache_lookups"))
        lines.append(_delta_line("traversal lookups", *pair, digits=0))
        lookups = [None if value is None or sum_ is None else sum_ + value
                   for sum_, value in zip(lookups, pair)]
    if lines:
        lines.append("total")
        for label in ["wall"] + sorted(set(times) - {"wall"}):
            lines.append(_delta_line(label, *times[label]))
        lines.append(_delta_line("traversal lookups", *lookups, digits=0))
    return lines


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
    parser.add_argument("--compare", metavar="OLD",
                        help="run nothing; print the per-row deltas of "
                             "the ledger at --output against OLD")
    arguments = parser.parse_args(argv)

    if arguments.compare:
        ledgers = []
        for path in (arguments.compare, arguments.output):
            with open(path, encoding="utf-8") as handle:
                ledgers.append(json.load(handle))
        lines = compare_ledgers(*ledgers)
        print(f"bench: {arguments.output} against {arguments.compare} "
              f"(times in ms)")
        print("\n".join(lines) if lines else "  no kernel row in common")
        return 0

    rows = QUICK_ROWS if arguments.quick else FULL_ROWS
    print(f"bench: {len(rows)} kernel rows, every check, "
          f"{ALTERNATING_REPEATS} alternating repeats ...")
    report = {"schema": SCHEMA, "quick": arguments.quick,
              "python": platform.python_version(),
              "kernel": kernel_rows(rows)}
    for result in report["kernel"]:
        low, high = result["wall_s_range"]
        print(f"  {result['name']:<24} wall={result['wall_s']:8.4f}s "
              f"[{low:.4f}-{high:.4f}] "
              f"factor={result['calibration_factor']} "
              f"traversal={result['stages']['traversal']:8.4f}s "
              f"unattributed={result['unattributed_s']:.4f}s "
              f"span={result['event_span']} "
              f"iters={result['iterations']:<4} "
              f"hit-rate={result['cache_hit_rate']}")

    print("bench: tracing overhead ...")
    tracing = report["tracing"] = tracing_overhead()
    print(f"  noop-span={tracing['noop_span_ns']}ns "
          f"disabled={tracing['disabled_overhead_pct']}% "
          f"enabled={tracing['enabled_overhead_pct']}% "
          f"(repeats {tracing['enabled_overhead_pct_range']})")

    sweep = QUICK_SWEEP if arguments.quick else FULL_SWEEP
    print(f"bench: cold vs warm --bdd-cache sweep ({' '.join(sweep)}) ...")
    bdd_cache = report["bdd_cache"] = bdd_cache_sweep(sweep)
    print(f"  cold={bdd_cache['cold_s']}s warm={bdd_cache['warm_s']}s "
          f"speedup={bdd_cache['speedup']}x "
          f"(pairs {bdd_cache['speedup_range']})")

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
    print(f"  delta p50 over the first ten edits "
          f"{serve['edit_loop']['delta_p50_first_ten_ms']} ms, the last "
          f"ten {serve['edit_loop']['delta_p50_last_ten_ms']} ms")

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
