"""The traced run: per-layer self times and deterministic BDD work counts.

Batch workloads alternate untraced and traced passes over the same
specifications through :mod:`layers`; the untraced pass uses a
:class:`spans.NullTracer`, so the difference between the two is the
cost of tracing alone.  ``serve_mixed`` first drives the daemon (client
latencies per request class and ``/metrics`` ratios), then replays the
same requests in process, untraced and traced.

The work counts come from one *count pass* per workload -- a fixed,
seed-determined set of layer calls.  The run repeats it in two child
interpreters under different ``PYTHONHASHSEED`` values and fails unless
all three agree exactly.  A child is this file run as a script::

    python3 perfbench/traced.py WORKLOAD SEED WORK_DIR
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time
from typing import Dict, List

if __name__ == "__main__":  # a count-pass child: find the program
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import inputs as bench_inputs
from calibrate import Sampler, cpus, pin
from e2e import Result
from inputs import ALL_CHECKS, pass_order
from layers import ServeReplay, batch_pass, planned_requests
from serving import Daemon, counter, drive, prewarm
from spans import COUNT_KEYS, NullTracer, PassRecord, Tracer

#: Hash seeds of the two count-pass children.
CHILD_HASH_SEEDS = ("1", "2")
#: Requests per client in the serve count pass.
COUNT_REQUESTS = 10
#: Share of a serve_mixed traced run spent driving the daemon; the rest
#: goes to the two in-process replays of the same requests.
CLIENT_SHARE = 0.4


# ----------------------------------------------------------------------
# Count passes (also run in the children)
# ----------------------------------------------------------------------
def batch_specs(workload: str, seed: int):
    if workload == "scale_allchecks":
        return bench_inputs.scale_specs()
    return list(bench_inputs.corpus_references(seed).values())


def count_pass(workload: str, seed: int, work: str) -> PassRecord:
    tracer = Tracer()
    if workload == "serve_mixed":
        serve = bench_inputs.serve_inputs(seed)
        replay = ServeReplay(tracer, work, serve)
        tracer.begin_pass()
        for request in planned_requests(serve, COUNT_REQUESTS):
            replay.replay(request)
        return tracer.end_pass()
    tracer.begin_pass()
    batch_pass(tracer, batch_specs(workload, seed))
    return tracer.end_pass()


def counts_json(record: PassRecord) -> str:
    return json.dumps(record.counts, sort_keys=True)


def child_counts(workload: str, seed: int, work: str) -> List[str]:
    """Run the count pass in two children with different hash seeds."""
    script = os.path.abspath(__file__)
    children = []
    for hash_seed in CHILD_HASH_SEEDS:
        environment = dict(os.environ, PYTHONHASHSEED=hash_seed)
        child_work = os.path.join(work, f"child-{hash_seed}")
        children.append(subprocess.Popen(
            [sys.executable, script, workload, str(seed), child_work],
            env=environment, stdout=subprocess.PIPE, text=True))
    outputs = []
    for child in children:
        out, _ = child.communicate(timeout=150)
        if child.returncode != 0:
            raise RuntimeError(f"count-pass child failed ({child.returncode})")
        outputs.append(out.strip().splitlines()[-1])
    return outputs


# ----------------------------------------------------------------------
# Metric assembly
# ----------------------------------------------------------------------
STAGE_SECONDS = {"stg.parse_s": "stg.parse",
                 "core.encoding_s": "core.encoding",
                 "core.image_s": "core.image",
                 "core.traversal_s": "core.traversal"}
STAGE_SECONDS.update({f"core.check.{name}_s": f"core.check.{name}"
                      for name in ALL_CHECKS})
#: Per-operation latencies of the serve replay: metric -> (request
#: class, span names summed per request).
OPERATION_MS = {
    "runner.store.lookup_ms": ("request.warm", ("runner.store.lookup",)),
    "runner.store.put_ms": ("request.cold", ("runner.store.put",)),
    "cache.bddstore.lookup_ms": ("request.delta", ("cache.bddstore.find",
                                                   "cache.bddstore.load")),
    "cache.bddstore.put_ms": ("request.delta", ("cache.bddstore.put",)),
    "delta.classify_ms": ("request.delta", ("delta.classify",)),
    "delta.seeded_verify_ms": ("request.delta", ("delta.seeded_verify",)),
}


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(traced: List[PassRecord], untraced: List[PassRecord],
                  counts: PassRecord, walls: Dict[str, List[float]]
                  ) -> Dict[str, float]:
    """Every per-layer metric except the serve client-side ones (0 here).

    Times are medians over the traced passes; counts come from the count
    pass.  A stage the workload never runs reports 0.  ``walls`` holds
    the calibrated wall time of every untraced and traced pass.
    """
    values: Dict[str, float] = {}
    for metric, stage in STAGE_SECONDS.items():
        values[metric] = median_or_zero(
            [record.self_ns.get(stage, 0) / 1e9 for record in traced])
    traversal = counts.counts.get("core.traversal", {})
    liveness = counts.counts.get("core.check.liveness", {})
    values["core.traversal.images"] = traversal.get("images", 0)
    values["core.traversal.iterations"] = traversal.get("iterations", 0)
    values["core.traversal.bdd_lookups"] = traversal.get("lookups", 0)
    values["core.traversal.bdd_nodes"] = traversal.get("nodes", 0)
    values["core.check.liveness.bdd_lookups"] = liveness.get("lookups", 0)
    values["core.check.liveness.bdd_nodes"] = liveness.get("nodes", 0)
    totals = {key: sum(stage.get(key, 0) for stage in counts.counts.values())
              for key in COUNT_KEYS}
    values["bdd.lookups"] = totals["lookups"]
    values["bdd.hit_ratio"] = (totals["hits"] / totals["lookups"]
                               if totals["lookups"] else 0.0)
    values["bdd.nodes"] = totals["nodes"]
    for metric, (root, stages) in OPERATION_MS.items():
        per_request = []
        for record in traced:
            columns = [record.durations_ns.get((root, stage), [])
                       for stage in stages]
            per_request += [sum(parts) / 1e6 for parts in zip(*columns)]
        values[metric] = median_or_zero(per_request)
    values["unattributed_s"] = median_or_zero(
        [record.unattributed_ns / 1e9 for record in traced])
    traced_wall = median_or_zero(walls["traced"])
    untraced_wall = median_or_zero(walls["untraced"])
    values["bench.trace_overhead_pct"] = (
        100.0 * (traced_wall - untraced_wall) / untraced_wall)
    for metric in ("serve.warm_p50_ms", "serve.cold_p50_ms",
                   "serve.delta_p50_ms", "serve.warm_overhead_ms",
                   "serve.cold_overhead_ms", "serve.delta_overhead_ms",
                   "serve.runstore.hit_ratio", "serve.bdd.delta_seed_ratio"):
        values[metric] = 0.0
    return values


def hash_seed_problems(parent: PassRecord, children: List[str]) -> List[str]:
    mine = counts_json(parent)
    return [f"BDD work counts differ under PYTHONHASHSEED={seed}"
            for seed, theirs in zip(CHILD_HASH_SEEDS, children)
            if theirs != mine]


# ----------------------------------------------------------------------
# The traced runs
# ----------------------------------------------------------------------
def timed_pass(sampler: Sampler, recorder, walls: List[float], run):
    """Run one pass under ``recorder``; append its calibrated wall time."""
    sampler.sample()
    start = time.perf_counter()
    recorder.begin_pass()
    outcome = run()
    record = recorder.end_pass()
    end = time.perf_counter()
    sampler.sample()
    walls.append(record.wall_ns / sampler.factor(start, end))
    return record, outcome


def run_batch(workload: str, seed: int, seconds: float, work: str) -> Result:
    pin(cpus()[0])
    specs = batch_specs(workload, seed)
    rng = random.Random(seed)
    tracer, null, sampler = Tracer(), NullTracer(), Sampler()
    traced: List[PassRecord] = []
    untraced: List[PassRecord] = []
    walls: Dict[str, List[float]] = {"untraced": [], "traced": []}
    # One discarded pass first: the process's first pass also pays for
    # lazy imports and heap growth, which belong to neither side.
    verified, found = batch_pass(null, specs)
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        for label, recorder, records in (("untraced", null, untraced),
                                         ("traced", tracer, traced)):
            order = pass_order(specs, rng)
            record, (done, problems) = timed_pass(
                sampler, recorder, walls[label],
                lambda: batch_pass(recorder, order))
            records.append(record)
            verified += done
            found += problems
    first = counts_json(traced[0])
    if any(counts_json(record) != first for record in traced[1:]):
        found.append("BDD work counts differ between passes")
    found += hash_seed_problems(traced[0], child_counts(workload, seed, work))
    return Result(layer_metrics(traced, untraced, traced[0], walls),
                  attempted=verified, failed=len(found), problems=found,
                  notes={"traced_passes": len(traced),
                         "specs_per_pass": len(specs)})


def run_serve(root: str, seed: int, seconds: float, work: str) -> Result:
    work_cpu, client_cpu = cpus()
    pin(work_cpu)
    serve = bench_inputs.serve_inputs(seed)
    with Daemon(root, os.path.join(work, "state")) as daemon:
        daemon.start()
        client = daemon.client()
        warm = prewarm(client, serve)
        before = client.metrics()
        pin(client_cpu)
        outcomes, _, _ = drive(daemon, serve, seconds * CLIENT_SHARE, warm)
        pin(work_cpu)
        after = client.metrics()
    found = [problem for outcome in outcomes for problem in outcome.problems]

    def delta(name: str) -> float:
        return counter(after, name) - counter(before, name)

    # The count pass runs first and doubles as the warm-up of every
    # replayed code path.
    count_record = count_pass("serve_mixed", seed, os.path.join(work, "count"))
    found += hash_seed_problems(count_record,
                                child_counts("serve_mixed", seed, work))
    requests = [outcome.request for outcome in outcomes]
    records: Dict[str, PassRecord] = {}
    walls: Dict[str, List[float]] = {"untraced": [], "traced": []}
    sampler = Sampler()
    for label, recorder in (("untraced", NullTracer()), ("traced", Tracer())):
        replay = ServeReplay(recorder, os.path.join(work, label), serve)
        if label == "traced":
            found += warm_parity(replay, warm)
        records[label], problems = timed_pass(
            sampler, recorder, walls[label],
            lambda: [problem for request in requests
                     for problem in replay.replay(request)])
        found += problems
    values = layer_metrics([records["traced"]], [records["untraced"]],
                           count_record, walls)
    for kind in ("warm", "cold", "delta"):
        client_p50 = median_or_zero(
            [o.seconds * 1e3 for o in outcomes if o.kind == kind])
        replay_p50 = median_or_zero(
            [ns / 1e6 for ns in records["traced"].durations_ns.get(
                (f"request.{kind}", f"request.{kind}"), [])])
        values[f"serve.{kind}_p50_ms"] = client_p50
        values[f"serve.{kind}_overhead_ms"] = client_p50 - replay_p50
    hits, misses = delta("serve.runstore.hits"), delta("serve.runstore.misses")
    values["serve.runstore.hit_ratio"] = hits / (hits + misses)
    values["serve.bdd.delta_seed_ratio"] = (
        delta("serve.bdd.delta_seeds") / delta("serve.delta.requests"))
    return Result(values, attempted=2 * len(outcomes), failed=len(found),
                  problems=found, notes={"requests": len(outcomes)})


def warm_parity(replay: ServeReplay, warm) -> List[str]:
    """In-process warm records must match the daemon's prewarm replies."""
    found = []
    for name, record in replay.warm_records.items():
        if (json.dumps(record.stable_dict(), sort_keys=True)
                != warm.warm_stable[name]):
            found.append(f"{name}: in-process verdict differs from the "
                         f"daemon's")
    return found


def run(workload: str, root: str, seed: int, seconds: float,
        work: str) -> Result:
    if workload == "serve_mixed":
        return run_serve(root, seed, seconds, work)
    return run_batch(workload, seed, seconds, work)


if __name__ == "__main__":
    workload_name, seed_text, work_dir = sys.argv[1:4]
    print(counts_json(count_pass(workload_name, int(seed_text), work_dir)))
