#!/usr/bin/env python
"""The tracked benchmark harness: kernel rows + BDD-cache sweep timing.

Runs the Table-1 benchmark rows (corpus entries and scalable-family
instances) through the symbolic :class:`~repro.core.pipeline.
VerificationPipeline` and times a real ``batch-check`` sweep twice --
once against a cold ``--bdd-cache`` store and once against the warm one
-- then emits everything as ``BENCH_sweep.json`` so the performance
trajectory of the symbolic hot path is tracked in-repo::

    python tools/bench.py --quick                  # the CI subset
    python tools/bench.py                          # the full row set
    python tools/bench.py --kernel-only            # skip the sweep section
    python tools/bench.py --before old.json        # embed a baseline run

Per kernel row the harness records wall time (total and traversal-only),
the self-time of each property check (``checks_s``), traversal
iterations and image counts, the Reached-BDD peak/final sizes, the peak
number of live manager nodes and the manager's operation-cache hit rate.
Stat collection runs through :mod:`repro.obs` (an in-memory tracer
around every row), so the check times are the ``check:<name>`` stages of
:func:`repro.obs.report.stage_breakdown` and the hit rate comes from the
traversal span's BDD delta -- the same numbers ``--trace`` files carry
-- with the :class:`~repro.core.stats.TraversalStats` counters as
fallback on old checkouts.  The ``tracing`` section commits the observability
layer's own cost (no-op span nanoseconds, disabled-path and
enabled-path overhead: disabled must stay under 2%).  The
``bdd_cache`` section is the headline number of the persistent
reachable-set cache: the warm sweep serves every reachable BDD from
the store and must beat the cold sweep by a wide margin.

The output schema is plain JSON (``schema`` marks revisions); a run
captured on an older kernel can be embedded under ``"before"`` with
``--before`` so one committed file shows the trajectory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

SCHEMA = 1

#: Kernel rows: corpus entry names and ``family@scale`` instances.  The
#: quick set is the CI subset; the full set adds the scales where the
#: traversal genuinely dominates (seconds, not milliseconds).
QUICK_ROWS = (
    "vme_read",
    "master_read_2",
    "muller_pipeline_4",
    "mutex3",
    "muller_pipeline@16",
    "master_read@8",
    "parallel_handshakes@10",
    "random_parallel@5",
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


def build_row_stg(row: str):
    """A row is a corpus entry name or a ``family@scale`` instance."""
    from repro.stg.generators import build_example
    from repro.stg.parser import parse_g

    if "@" in row:
        family, _, scale = row.partition("@")
        return build_example(family, int(scale))
    from repro import corpus

    return parse_g(corpus.entry(row).g_text, name=row)


def _traced_pipeline_run(stg, sink):
    """One full pipeline run under ``repro.obs`` tracing; returns
    ``(wall_s, traversal_s, pipeline)``.  ``sink=None`` runs with
    tracing disabled (the no-op path)."""
    from repro import obs
    from repro.api.checks import resolve_checks, run_checks
    from repro.core.pipeline import VerificationPipeline

    start = time.perf_counter()
    with obs.tracing(name=stg.name, sink=sink):
        pipeline = VerificationPipeline(stg)
        traversal_start = time.perf_counter()
        pipeline.reached  # noqa: B018 - trigger the traversal on its own
        traversal_s = time.perf_counter() - traversal_start
        run_checks(pipeline, resolve_checks(None), "symbolic")
    return time.perf_counter() - start, traversal_s, pipeline


def _traversal_cache_rate(records) -> "float | None":
    """Hit rate from the traversal span's BDD operation-cache delta."""
    from repro.obs.report import cache_breakdown

    entry = cache_breakdown(records).get("traversal")
    return entry["hit_rate"] if entry else None


def _check_self_times(records) -> dict:
    """Check name -> self-time of its ``check`` span, in seconds."""
    from repro.obs.report import stage_breakdown

    return {label[len("check:"):]: round(entry["self_s"], 4)
            for label, entry in sorted(stage_breakdown(records).items())
            if label.startswith("check:")}


def bench_kernel_row(row: str, repeats: int = 2) -> dict:
    """Best-of-``repeats`` timing of one pipeline run (noise damping).

    Every repeat runs under a :class:`repro.obs.InMemorySink` tracer;
    the cache hit rate comes from the traversal span's BDD delta (the
    same numbers ``--trace`` files carry), with the stats counters as
    fallback for kernels whose manager predates the obs layer -- so the
    rate is only ever ``None`` when neither source exists.
    """
    from repro import obs

    stg = build_row_stg(row)
    wall_s = traversal_s = float("inf")
    pipeline, best_records = None, []
    for _ in range(max(repeats, 1)):
        sink = obs.InMemorySink()
        elapsed, repeat_traversal_s, pipeline = _traced_pipeline_run(
            stg, sink)
        traversal_s = min(traversal_s, repeat_traversal_s)
        if elapsed < wall_s:
            wall_s, best_records = elapsed, sink.records

    stats = pipeline.traversal_stats.to_dict()
    rate = _traversal_cache_rate(best_records)
    if rate is None:
        hits = stats.get("cache_hits", 0)
        lookups = stats.get("cache_lookups", 0)
        rate = round(hits / lookups, 4) if lookups else None
    return {
        "name": row,
        "wall_s": round(wall_s, 4),
        "traversal_s": round(traversal_s, 4),
        "checks_s": _check_self_times(best_records),
        "iterations": stats.get("iterations"),
        "images": stats.get("images_computed"),
        "bdd_peak": stats.get("peak_nodes"),
        "bdd_final": stats.get("final_nodes"),
        "states": stats.get("num_states"),
        "peak_live_nodes": stats.get("peak_live_nodes", 0),
        "cache_hit_rate": rate,
    }


def bench_tracing_overhead(row: str = "muller_pipeline_4",
                           repeats: int = 3,
                           noop_loops: int = 200_000) -> dict:
    """The cost of the observability layer itself, committed in-repo.

    Three numbers:

    * ``noop_span_ns`` -- per-call cost of ``obs.span(...)`` with no
      tracer active (one ContextVar read + a None test);
    * ``disabled_overhead_pct`` -- that no-op cost times the number of
      emission sites one pipeline run actually hits, as a fraction of
      the untraced wall time: the overhead the instrumentation adds
      when tracing is *off* (the <2 percent contract);
    * ``enabled_overhead_pct`` -- full-tracing (in-memory sink) wall
      time against the disabled path, best-of-``repeats`` each.
    """
    from repro import obs

    stg = build_row_stg(row)
    disabled_s = min(_traced_pipeline_run(stg, None)[0]
                     for _ in range(max(repeats, 1)))
    enabled_s = float("inf")
    emissions = 0
    for _ in range(max(repeats, 1)):
        sink = obs.InMemorySink()
        elapsed = _traced_pipeline_run(stg, sink)[0]
        if elapsed < enabled_s:
            enabled_s, emissions = elapsed, len(sink.records)

    start = time.perf_counter()
    for _ in range(noop_loops):
        with obs.span("bench-noop"):
            pass
    noop_span_ns = (time.perf_counter() - start) / noop_loops * 1e9

    disabled_overhead_s = emissions * noop_span_ns * 1e-9
    return {
        "row": row,
        "noop_span_ns": round(noop_span_ns, 1),
        "emission_sites": emissions,
        "disabled_s": round(disabled_s, 4),
        "enabled_s": round(enabled_s, 4),
        "disabled_overhead_pct": round(
            disabled_overhead_s / disabled_s * 100.0, 4)
        if disabled_s else None,
        "enabled_overhead_pct": round(
            (enabled_s - disabled_s) / disabled_s * 100.0, 2)
        if disabled_s else None,
    }


def batch_check_seconds(arguments, workdir) -> float:
    """Wall time of one ``python -m repro batch-check ...`` subprocess."""
    environment = dict(os.environ)
    environment["PYTHONPATH"] = (
        os.path.join(REPO_ROOT, "src")
        + (os.pathsep + environment["PYTHONPATH"]
           if environment.get("PYTHONPATH") else ""))
    command = [sys.executable, "-m", "repro", "batch-check", *arguments]
    start = time.perf_counter()
    completed = subprocess.run(
        command, env=environment, cwd=workdir,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    elapsed = time.perf_counter() - start
    if completed.returncode != 0:
        print(completed.stdout)
        raise SystemExit(f"bench: {' '.join(command)} exited "
                         f"{completed.returncode}")
    return elapsed


def bench_bdd_cache(sweep_arguments) -> dict:
    """Time the same sweep against a cold and then a warm BDD store."""
    workdir = tempfile.mkdtemp(prefix="repro-bench-")
    try:
        store = os.path.join(workdir, "bdd-store")
        arguments = [*sweep_arguments, "--bdd-cache", store]
        cold_s = batch_check_seconds(arguments, workdir)
        warm_s = batch_check_seconds(arguments, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "sweep": " ".join(sweep_arguments),
        "cold_s": round(cold_s, 3),
        "warm_s": round(warm_s, 3),
        "speedup": round(cold_s / warm_s, 2) if warm_s else None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the symbolic hot path and emit "
                    "BENCH_sweep.json")
    parser.add_argument("--quick", action="store_true",
                        help="the fast CI subset of rows and sweep scales")
    parser.add_argument("--kernel-only", action="store_true",
                        help="skip the cold/warm --bdd-cache sweep section")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="where to write the JSON report (default: "
                             "BENCH_sweep.json in the repo root; '-' for "
                             "stdout only)")
    parser.add_argument("--before", default=None, metavar="PATH",
                        help="embed a previously captured run under "
                             "'before' for before/after comparison")
    parser.add_argument("--label", default="current",
                        help="label recorded in the report (default: "
                             "current)")
    parser.add_argument("--repeats", type=int, default=2, metavar="N",
                        help="kernel rows report the best of N runs "
                             "(default: 2)")
    arguments = parser.parse_args()

    rows = QUICK_ROWS if arguments.quick else FULL_ROWS
    report = {
        "schema": SCHEMA,
        "label": arguments.label,
        "quick": arguments.quick,
        "python": platform.python_version(),
        "kernel": [],
    }

    print(f"bench: {len(rows)} kernel rows ...")
    for row in rows:
        result = bench_kernel_row(row, repeats=arguments.repeats)
        report["kernel"].append(result)
        rate = result["cache_hit_rate"]
        print(f"  {row:<24} wall={result['wall_s']:8.3f}s "
              f"traversal={result['traversal_s']:8.3f}s "
              f"iters={result['iterations']:<3} "
              f"peak={result['bdd_peak']:<6} "
              f"hit-rate={rate if rate is not None else '-'}")

    print("bench: tracing overhead (no-op span path) ...")
    report["tracing"] = bench_tracing_overhead()
    print(f"  noop-span={report['tracing']['noop_span_ns']}ns "
          f"disabled-overhead="
          f"{report['tracing']['disabled_overhead_pct']}% "
          f"enabled-overhead="
          f"{report['tracing']['enabled_overhead_pct']}%")

    if not arguments.kernel_only:
        sweep = QUICK_SWEEP if arguments.quick else FULL_SWEEP
        print(f"bench: cold vs warm --bdd-cache sweep "
              f"({' '.join(sweep)}) ...")
        report["bdd_cache"] = bench_bdd_cache(sweep)
        print(f"  cold={report['bdd_cache']['cold_s']}s "
              f"warm={report['bdd_cache']['warm_s']}s "
              f"speedup={report['bdd_cache']['speedup']}x")

    if arguments.before:
        with open(arguments.before, encoding="utf-8") as handle:
            report["before"] = json.load(handle)

    text = json.dumps(report, indent=2, sort_keys=True)
    if arguments.output != "-":
        path = arguments.output or os.path.join(REPO_ROOT,
                                                "BENCH_sweep.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"bench: wrote {path}")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
