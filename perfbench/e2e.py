"""The untraced runs: each workload through the program's public entry points.

``scale_allchecks`` calls :func:`repro.api.verify`, ``corpus_sweep``
calls :func:`repro.runner.run_sweep` and ``serve_mixed`` talks to a
``python -m repro serve`` subprocess through
:class:`repro.serve.ServeClient`.  Each returns the end-to-end metrics
and the count of operations that missed their reference.

Work is timed in groups -- a pass over the inputs, or a 2-second window
of serve replies.  Each group's timings are scaled by the machine's
slowdown during the group (:mod:`calibrate`), and a metric is the median
over groups.  Set-up steps run ``SETUP_REPEATS`` times, each scaled the
same way, and report their median.
"""

from __future__ import annotations

import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.api import ALL, verify
from repro.runner import SweepPlan, run_sweep
from repro.runner.results import EntryResult
from repro.runner.worker import execute_payload
from repro.stg.parser import parse_g

import inputs as bench_inputs
from calibrate import Sampler, cpus, pin
from inputs import DEFAULT_CHECKS, DELTA_CHECKS, pass_order, problems
from layers import task_for
from serving import Daemon, counter, drive, prewarm

SETUP_REPEATS = 5
#: Delta replies re-run cold in process after the timed loop.
DELTA_SAMPLES = 3
#: Length of the serve_mixed timing groups.
WINDOW_S = 2.0


@dataclass
class Result:
    metrics: Dict[str, float]
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    notes: Dict[str, object] = field(default_factory=dict)


@dataclass
class Group:
    """Latencies (seconds) of the operations finished in ``[start, end]``."""

    latencies: List[float]
    start: float
    end: float


def group_metrics(groups: List[Group], sampler: Sampler) -> Dict[str, float]:
    """Calibrated throughput and p50/p95 latency of each group, then the
    median over groups: a group the calibration under-corrects moves a
    median less than it moves a pooled tail."""
    rates, p50s, p95s = [], [], []
    for group in groups:
        factor = sampler.factor(group.start, group.end)
        latencies = [latency / factor for latency in group.latencies]
        cuts = statistics.quantiles(latencies, n=100, method="inclusive")
        rates.append(len(latencies) * factor / (group.end - group.start))
        p50s.append(statistics.median(latencies))
        p95s.append(cuts[94])
    return {"specs_per_s": statistics.median(rates),
            "latency_p50_ms": statistics.median(p50s) * 1e3,
            "latency_p95_ms": statistics.median(p95s) * 1e3}


def median_setup(sampler: Sampler, function: Callable[[], object]
                 ) -> Tuple[float, object]:
    """Run a set-up step ``SETUP_REPEATS`` times: (median calibrated
    seconds, the last value)."""
    times, value = [], None
    for _ in range(SETUP_REPEATS):
        sampler.sample()
        start = time.perf_counter()
        value = function()
        end = time.perf_counter()
        sampler.sample()
        times.append((end - start) / sampler.factor(start, end))
    return statistics.median(times), value


def import_seconds(sampler: Sampler, root: str, modules: str) -> float:
    """Calibrated time of a fresh interpreter importing ``modules``."""
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.path.join(root, "src")
    seconds, _ = median_setup(sampler, lambda: subprocess.run(
        [sys.executable, "-c", f"import {modules}"], cwd=root,
        env=environment, check=True))
    return seconds


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stable_report(report: Dict[str, object]) -> str:
    return json.dumps({key: value for key, value in report.items()
                       if key != "timings"}, sort_keys=True)


# ----------------------------------------------------------------------
# scale_allchecks
# ----------------------------------------------------------------------
def scale_allchecks(root: str, seed: int, seconds: float) -> Result:
    pin(cpus()[0])
    with Sampler() as sampler:
        setup = import_seconds(sampler, root, "repro.api")
        generate_s, parsed = median_setup(sampler, lambda: [
            (spec, parse_g(spec.g_text, name=spec.name))
            for spec in bench_inputs.scale_specs()])
        setup += generate_s

        # Whole passes only: the specs differ in cost by 3x, so a run cut
        # mid-pass would weigh them by where the cut fell.  The first
        # pass runs in registry order, warms the heap up and is not
        # timed; the peak RSS is read after it (later shuffled passes
        # only add allocator fragmentation that depends on the order).
        rng = random.Random(seed)
        found: List[str] = []
        first_report: Dict[str, str] = {}
        groups: List[Group] = []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            group = Group([], time.perf_counter(), 0.0)
            order = pass_order(parsed, rng) if groups else parsed
            for spec, stg in order:
                sampler.sample()
                began = time.perf_counter()
                report = verify(stg, checks=ALL).to_dict()
                group.latencies.append(time.perf_counter() - began)
                found += problems(report, spec)
                stable = first_report.setdefault(spec.name,
                                                 stable_report(report))
                if stable != stable_report(report):
                    found.append(f"{spec.name}: report differs between "
                                 f"passes")
            group.end = time.perf_counter()
            sampler.sample()
            groups.append(group)
            if len(groups) == 1:
                peak_rss = own_peak_rss_mb()
        metrics = {"setup_s": setup, "peak_rss_mb": peak_rss}
        metrics.update(group_metrics(groups[1:], sampler))
    samples = sum(len(group.latencies) for group in groups)
    return Result(metrics, attempted=samples, failed=len(found),
                  problems=found, notes={"samples": samples,
                                         "passes": len(groups)})


# ----------------------------------------------------------------------
# corpus_sweep
# ----------------------------------------------------------------------
def sweep_plan(seed: int) -> SweepPlan:
    rings, parallels = bench_inputs.family_draws(seed)
    return SweepPlan(families=[("random_ring", rings),
                               ("random_parallel", parallels)],
                     checks=list(DEFAULT_CHECKS), backend="serial")


def corpus_sweep(root: str, seed: int, seconds: float) -> Result:
    def generate():
        plan = sweep_plan(seed)
        plan.tasks()
        return plan, bench_inputs.corpus_references(seed)

    pin(cpus()[0])
    with Sampler() as sampler:
        setup = import_seconds(sampler, root, "repro.api, repro.runner")
        generate_s, (plan, references) = median_setup(sampler, generate)
        setup += generate_s

        found: List[str] = []
        groups: List[Group] = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            sampler.sample()
            stamps = [time.perf_counter()]
            sweep = run_sweep(plan, progress=lambda _: stamps.append(
                time.perf_counter()))
            sampler.sample()
            groups.append(Group([b - a for a, b in zip(stamps, stamps[1:])],
                                stamps[0], stamps[-1]))
            if len(groups) == 1:
                # What a one-shot batch-check reaches; later passes add
                # only the garbage collector's timing.  This first pass
                # also warms the heap up and is not timed.
                peak_rss = own_peak_rss_mb()
            for entry in sweep.results:
                if entry.status != "ok":
                    found.append(f"{entry.name}: status {entry.status} "
                                 f"{entry.error or entry.mismatches}")
                else:
                    found += problems(entry.report, references[entry.name])
        metrics = {"setup_s": setup, "peak_rss_mb": peak_rss}
        metrics.update(group_metrics(groups[1:], sampler))
    samples = sum(len(group.latencies) for group in groups)
    return Result(metrics, attempted=samples, failed=len(found),
                  problems=found, notes={"samples": samples,
                                         "passes": len(groups)})


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------
def boot(sampler: Sampler, root: str, work: str) -> Tuple[float, Daemon]:
    """Boot ``SETUP_REPEATS`` daemons one after another, each until its
    first ``/healthz``; keep the last.  Returns (median calibrated boot
    seconds, the running daemon)."""
    times = []
    for attempt in range(SETUP_REPEATS):
        daemon = Daemon(root, os.path.join(work, f"state-{attempt}"))
        try:
            sampler.sample()
            start = time.perf_counter()
            daemon.start()
            end = time.perf_counter()
            sampler.sample()
        except BaseException:
            daemon.stop()
            raise
        times.append((end - start) / sampler.factor(start, end))
        if attempt < SETUP_REPEATS - 1:
            daemon.stop()
    return statistics.median(times), daemon


def windows(outcomes, start: float, wall: float) -> List[Group]:
    """Replies grouped by the ``WINDOW_S`` window they arrived in; the
    partial last window is dropped."""
    groups = [Group([], start + index * WINDOW_S,
                    start + (index + 1) * WINDOW_S)
              for index in range(int(wall // WINDOW_S))]
    for outcome in outcomes:
        slot = int(outcome.finished // WINDOW_S)
        if slot < len(groups):
            groups[slot].latencies.append(outcome.seconds)
    return groups


def delta_parity(outcomes, rng: random.Random) -> List[str]:
    """Re-run sampled delta requests cold in process; stable reports
    must be byte-identical to the delta replies."""
    deltas = [outcome for outcome in outcomes
              if outcome.kind == "delta" and outcome.reply is not None]
    found = []
    for outcome in rng.sample(deltas, min(DELTA_SAMPLES, len(deltas))):
        task = task_for(outcome.spec, DELTA_CHECKS)
        cold = EntryResult.from_dict(execute_payload(task.to_payload()))
        if (json.dumps(cold.stable_dict(), sort_keys=True)
                != json.dumps(outcome.reply["stable"], sort_keys=True)):
            found.append(f"{outcome.spec.name}: delta reply differs from "
                         f"a cold run of the same text")
    return found


def serve_mixed(root: str, seed: int, seconds: float, work: str) -> Result:
    # The daemon (and everything set up before the loop) runs on the
    # work CPU; the clients move to the other one, and the sampler
    # thread goes back to the daemon's CPU.
    work_cpu, client_cpu = cpus()
    pin(work_cpu)
    with Sampler() as sampler:
        setup = import_seconds(sampler, root, "repro.serve, repro.runner")
        generate_s, inputs = median_setup(
            sampler, lambda: bench_inputs.serve_inputs(seed))
        boot_s, daemon = boot(sampler, root, work)
        setup += generate_s + boot_s
        with daemon:
            client = daemon.client()
            warm = prewarm(client, inputs)
            before = client.metrics()
            pin(client_cpu)
            with sampler.background(work_cpu):
                outcomes, start, wall = drive(daemon, inputs, seconds, warm)
            after = client.metrics()
            peak_rss = daemon.peak_rss_mb()
        metrics = {"setup_s": setup, "peak_rss_mb": peak_rss}
        metrics.update(group_metrics(windows(outcomes, start, wall),
                                     sampler))
    found = [problem for outcome in outcomes for problem in outcome.problems]
    failed = sum(1 for outcome in outcomes if outcome.problems)
    warm_count = sum(1 for outcome in outcomes if outcome.kind == "warm")
    hits = (counter(after, "serve.runstore.hits")
            - counter(before, "serve.runstore.hits"))
    if hits != warm_count:
        found.append(f"/metrics counted {hits:g} RunStore hits for "
                     f"{warm_count} warm requests")
        failed += 1
    parity = delta_parity(outcomes, random.Random(seed))
    found += parity
    failed += len(parity)
    notes = {"samples": len(outcomes)}
    for kind in ("warm", "cold", "delta"):
        chosen = [o.seconds for o in outcomes if o.kind == kind]
        notes[f"{kind}_requests"] = len(chosen)
        if chosen:
            notes[f"{kind}_p50_ms_uncalibrated"] = round(
                statistics.median(chosen) * 1e3, 3)
    return Result(metrics, attempted=len(outcomes), failed=failed,
                  problems=found, notes=notes)
