"""The verifier's layers called one by one, each call inside a span.

The traced run sends a workload's inputs through these functions
instead of the facade, so every layer boundary gets a span (see
:mod:`spans`).  Called with a :class:`spans.NullTracer` the same code is
the untraced baseline the tracing overhead is measured against.

Stage names are the module names of the layers: ``stg.*`` (parse,
write), ``core.encoding`` (FORCE ordering included), ``core.image``,
``core.traversal``, ``core.check.<name>``, ``cache.bddstore.*``
(``probe`` is the exact-key lookup, ``find`` and ``load`` read a delta
base), ``delta.*`` and ``runner.store.*``; ``request.*`` spans wrap one
replayed serve request.
"""

from __future__ import annotations

import itertools
import os
from typing import Dict, List, Tuple

from repro.api.checks import CHECKS, apply_check
from repro.api.config import EngineConfig
from repro.cache import BDDStore, reachable_fingerprint
from repro.core.pipeline import VerificationPipeline
from repro.delta import TIER_SEED, classify_delta, diff_stg
from repro.delta.warmstart import extend_to_encoding
from repro.report import ImplementabilityReport
from repro.runner.plan import SweepTask, normalise_expected
from repro.runner.results import EntryResult
from repro.runner.store import RunStore
from repro.runner.worker import execute_payload
from repro.stg.parser import parse_g
from repro.stg.writer import to_g_string

from inputs import (
    CLIENTS,
    DELTA_CHECKS,
    Request,
    ServeInputs,
    Spec,
    problems,
)
from spans import NullTracer, bdd_counts

CONFIG = EngineConfig()


# ----------------------------------------------------------------------
# One specification through parse, encoding, image, traversal, checks
# ----------------------------------------------------------------------
def prepare(tr, spec: Spec):
    """Parse and encode; returns ``(pipeline, manager)``."""
    with tr.span("stg.parse"):
        stg = parse_g(spec.g_text, name=spec.name)
    pipeline = VerificationPipeline(stg, arbitration_places=spec.arbitration)
    with tr.span("core.encoding") as span:
        manager = pipeline.encoding.manager
    if tr.enabled:  # a fresh manager: its totals are the encoding's
        span.record(**bdd_counts(manager))
    with tr.span("core.image", manager):
        pipeline.image
    return pipeline, manager


def traverse(tr, pipeline, manager):
    with tr.span("core.traversal", manager) as span:
        pipeline.reached
    stats = pipeline.traversal_stats
    span.extra["images"] = stats.images_computed
    span.extra["iterations"] = stats.iterations
    return stats


def run_checks(tr, pipeline, manager, checks) -> Dict[str, object]:
    """Apply ``checks`` over the pipeline; returns the report dict."""
    stg = pipeline.stg
    sizes = stg.statistics()
    report = ImplementabilityReport(
        stg_name=stg.name, method="symbolic", num_places=sizes["places"],
        num_transitions=sizes["transitions"], num_signals=sizes["signals"])
    for name in checks:
        with tr.span(f"core.check.{name}", manager):
            apply_check(pipeline, CHECKS[name], report, "symbolic")
    report.num_states = pipeline.traversal_stats.num_states
    return report.to_dict()


def verify_spec(tr, spec: Spec) -> Tuple[Dict[str, object], List[str]]:
    """The whole chain for one spec; returns ``(report, problems)``."""
    pipeline, manager = prepare(tr, spec)
    traverse(tr, pipeline, manager)
    report = run_checks(tr, pipeline, manager, spec.checks)
    return report, problems(report, spec)


def batch_pass(tr, specs) -> Tuple[int, List[str]]:
    """One pass over ``specs``; returns ``(verified, problems)``."""
    found: List[str] = []
    for spec in specs:
        found += verify_spec(tr, spec)[1]
    return len(specs), found


# ----------------------------------------------------------------------
# Serve requests replayed in process
# ----------------------------------------------------------------------
def task_for(spec: Spec, checks=None, corpus_entry: bool = False
             ) -> SweepTask:
    """The task the daemon builds for a request (same fingerprint):
    corpus entries carry their registry metadata, raw texts none."""
    return SweepTask(name=spec.name, g_text=spec.g_text,
                     config=CONFIG.with_overrides(
                         arbitration_places=spec.arbitration),
                     expected=(normalise_expected(spec.expected)
                               if corpus_entry else {}),
                     checks=checks)


class ServeReplay:
    """The daemon's per-request work, without transport or queueing.

    Owns a private RunStore and BDDStore under ``work_dir``.  The base
    entry and the warm records are stored at construction (outside any
    pass), exactly as the daemon holds them after the benchmark's
    prewarm requests.
    """

    def __init__(self, tr, work_dir: str, inputs: ServeInputs) -> None:
        self.tr = tr
        self.run_store = RunStore(os.path.join(work_dir, "run-store"))
        self.bdd_store = BDDStore(os.path.join(work_dir, "bdd-store"))
        self.warm_records: Dict[str, EntryResult] = {}
        self.warm_tasks: Dict[str, SweepTask] = {}
        for spec in inputs.warm:
            task = task_for(spec, corpus_entry=True)
            record = EntryResult.from_dict(execute_payload(task.to_payload()))
            self.run_store.put(record)
            self.warm_records[spec.name] = record
            self.warm_tasks[spec.name] = task
        pipeline, _ = prepare(NullTracer(), inputs.base)
        pipeline.reached
        canonical = to_g_string(pipeline.stg)
        self.base_fingerprint = reachable_fingerprint(canonical, CONFIG)
        self.base_states = pipeline.traversal_stats.num_states
        self.bdd_store.put(inputs.base.name, self.base_fingerprint,
                           pipeline.reached, pipeline.traversal_stats,
                           g_text=canonical)

    def replay(self, request: Request) -> List[str]:
        """Serve one request; returns reference problems."""
        with self.tr.span(f"request.{request.kind}"):
            if request.kind == "warm":
                return self._warm(request.spec)
            if request.kind == "cold":
                return self._cold(request.spec)
            return self._delta(request.spec)

    def _warm(self, spec: Spec) -> List[str]:
        task = self.warm_tasks[spec.name]
        with self.tr.span("runner.store.lookup"):
            hit = self.run_store.lookup(task.name, task.fingerprint)
        if hit is None or hit.status != "ok":
            return [f"{spec.name}: warm replay missed the RunStore"]
        return []

    def _store(self, spec, pipeline, canonical, fingerprint, report,
               checks) -> None:
        with self.tr.span("cache.bddstore.put"):
            self.bdd_store.put(spec.name, fingerprint, pipeline.reached,
                               pipeline.traversal_stats, g_text=canonical)
        task = task_for(spec, checks)
        with self.tr.span("runner.store.put"):
            self.run_store.put(EntryResult(
                name=spec.name, status="ok", engine="symbolic",
                fingerprint=task.fingerprint, report=report,
                traversal=pipeline.traversal_stats.to_dict()))

    def _lookup_miss(self, spec, manager, fingerprint) -> List[str]:
        with self.tr.span("cache.bddstore.probe", manager):
            hit = self.bdd_store.lookup(spec.name, fingerprint, manager)
        return [] if hit is None else [
            f"{spec.name}: fresh spec hit the BDD store"]

    def _cold(self, spec: Spec) -> List[str]:
        pipeline, manager = prepare(self.tr, spec)
        with self.tr.span("stg.write"):
            canonical = to_g_string(pipeline.stg)
        fingerprint = reachable_fingerprint(canonical, CONFIG)
        found = self._lookup_miss(spec, manager, fingerprint)
        traverse(self.tr, pipeline, manager)
        report = run_checks(self.tr, pipeline, manager, spec.checks)
        self._store(spec, pipeline, canonical, fingerprint, report, None)
        return found + problems(report, spec)

    def _delta(self, spec: Spec) -> List[str]:
        tr = self.tr
        pipeline, manager = prepare(tr, spec)
        with tr.span("stg.write"):
            canonical = to_g_string(pipeline.stg)
        fingerprint = reachable_fingerprint(canonical, CONFIG)
        found = self._lookup_miss(spec, manager, fingerprint)
        with tr.span("cache.bddstore.find"):
            located = self.bdd_store.find(self.base_fingerprint)
        if located is None:
            return found + [f"{spec.name}: base entry not found"]
        path, meta = located
        with tr.span("delta.classify"):
            with tr.span("stg.parse"):
                base = parse_g(meta["g_text"])
            delta = diff_stg(base, pipeline.stg)
            classification = classify_delta(delta, pipeline.stg)
        if classification.tier != TIER_SEED:
            return found + [f"{spec.name}: delta tier "
                            f"{classification.tier}, expected seed"]
        with tr.span("delta.seeded_verify", manager):
            with tr.span("cache.bddstore.load", manager):
                loaded = self.bdd_store.load_entry(path, manager)
            base_reached, base_variables = loaded
            pipeline.seed_reached = extend_to_encoding(
                pipeline.encoding, base_reached, base_variables)
            pipeline.seed_transitions = list(delta.added_transitions)
            pipeline.seed_closed = classification.closed
            traverse(tr, pipeline, manager)
            report = run_checks(tr, pipeline, manager, DELTA_CHECKS)
        self._store(spec, pipeline, canonical, fingerprint, report,
                    DELTA_CHECKS)
        found += problems(report, spec)
        if report["num_states"] != 2 * self.base_states:
            found.append(f"{spec.name}: {report['num_states']} states, "
                         f"expected twice the base's {self.base_states}")
        return found


def planned_requests(inputs: ServeInputs, per_client: int) -> List[Request]:
    """A fixed, seed-determined request list: each client's first
    ``per_client`` requests, client 0 first."""
    return [request for client in range(CLIENTS)
            for request in itertools.islice(inputs.requests(client),
                                            per_client)]
