"""The daemon's process-wide warm state.

What makes ``repro.serve`` *always-warm* is that nothing request-scoped
owns a cache: one :class:`WarmState` object lives for the daemon's whole
life and owns

* the :class:`~repro.runner.store.RunStore` of finished verdicts
  (repeat requests for the same task content are served without running
  anything),
* the shared :class:`~repro.cache.BDDStore` directory (a repeat request
  that *does* recompute -- say, a different check subset over the same
  specification -- still skips the reachability traversal; the store's
  hit counters prove it.  Schema-2 ``base`` requests stretch the same
  store to *edited* specifications: the facade's
  :func:`~repro.api.facade.resolve_base` turns the reference into a
  fingerprint and the engine's delta warm-start seeds the traversal
  from the base entry),
* the table of task texts by name, so a later request can say
  ``base=<an earlier task's name>``,
* the per-fingerprint single-flight locks (N concurrent requests for
  the same content cost one computation), and
* the daemon-wide :class:`~repro.obs.metrics.MetricsRegistry` that
  ``GET /metrics`` snapshots.

The daemon derives nothing a batch-check run derives differently:
corpus requests become tasks through
:func:`~repro.runner.plan.corpus_task`, the builder
:class:`~repro.runner.plan.SweepPlan` expands corpus entries with, so a
daemon verdict is byte-identical (stable view) to the ``batch-check``
verdict for the same entry; base references resolve through the
facade's resolver, which keys names exactly as the engine stores them.
Client configs pass through
:meth:`~repro.api.config.EngineConfig.without_execution_knobs` before
the daemon stamps its own BDD-cache directory on: callers choose *what*
to verify, never where the daemon caches or how long it may run.

Verification itself happens in :func:`execute_payload_async`, which
runs the sweep worker's :func:`~repro.runner.worker.execute_payload` on
an executor thread -- the serve layer never touches engine internals
(analyzer rule RA203 pins that).
"""

from __future__ import annotations

import asyncio
import contextvars
import os
from dataclasses import replace
from typing import Dict, Optional

from repro.api.config import EngineConfig
from repro.api.errors import ApiError
from repro.api.facade import resolve_base
from repro.cache import BDDStore
from repro.obs import MetricsRegistry
from repro.runner.plan import SweepTask, corpus_task
from repro.runner.results import EntryResult
from repro.runner.store import RunStore
from repro.runner.worker import execute_payload
from repro.serve.protocol import CheckRequest, ProtocolError, anonymous_name

#: Subdirectories of the daemon state directory.
RUN_STORE_DIR = "run-store"
BDD_STORE_DIR = "bdd-store"


async def execute_payload_async(payload: Dict[str, object],
                                executor: Optional[object] = None
                                ) -> Dict[str, object]:
    """Run one task payload on ``executor`` without blocking the loop.

    The daemon's execution primitive: :meth:`WarmState.run_task` calls
    it per job.  ``executor`` is a ``concurrent.futures`` executor (the
    event loop's default thread pool when ``None``).  The payload
    executes in a *copy of the caller's context*:
    ``loop.run_in_executor`` does not propagate contextvars by itself,
    so without the copy a request-scoped :mod:`repro.obs` tracer
    activated around this call would lose every span the entry emits
    on the executor thread.
    """
    loop = asyncio.get_running_loop()
    context = contextvars.copy_context()
    return await loop.run_in_executor(
        executor, lambda: context.run(execute_payload, payload))


class WarmState:
    """Everything the daemon keeps warm between requests."""

    def __init__(self, state_dir: str,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.state_dir = os.path.abspath(state_dir)
        self.run_store = RunStore(os.path.join(self.state_dir,
                                               RUN_STORE_DIR))
        self.bdd_dir = os.path.join(self.state_dir, BDD_STORE_DIR)
        self.bdd_store = BDDStore.shared(self.bdd_dir)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._flights: Dict[str, asyncio.Lock] = {}
        #: Task name -> raw ``.g`` text of every task this daemon has
        #: built, so a later request can say ``base=<that name>``.
        self._task_sources: Dict[str, str] = {}
        self._prime_metrics()

    def _prime_metrics(self) -> None:
        """Materialise the documented metrics so ``/metrics`` serves the
        full vocabulary from the first scrape -- a counter that has not
        fired yet reads 0 rather than being absent."""
        self.metrics.counter("serve.requests")
        self.metrics.counter("serve.rejected")
        self.metrics.counter("serve.runstore.hits")
        self.metrics.counter("serve.runstore.misses")
        self.metrics.counter("serve.delta.requests")
        self.metrics.histogram("serve.request.seconds")
        self.metrics.histogram("serve.queue_wait.seconds")
        self.metrics.histogram("serve.entry.seconds")
        self.metrics.gauge("serve.queue.depth").set(0)
        self.observe_stores()

    # ------------------------------------------------------------------
    # Task construction (the batch-check parity half of the contract)
    # ------------------------------------------------------------------
    def make_task(self, request: CheckRequest) -> SweepTask:
        """Build the :class:`SweepTask` a request describes.

        Corpus requests are built by :func:`~repro.runner.plan.corpus_task`,
        as :meth:`~repro.runner.plan.SweepPlan.tasks` builds them, so the
        fingerprint (and therefore the RunStore key and the stable
        verdict) matches a ``batch-check`` run of the same entry.
        """
        try:
            config = EngineConfig.from_dict(dict(request.config or {}))
        except Exception as error:
            raise ProtocolError(f"invalid engine config: {error}") from None
        config = config.without_execution_knobs().with_overrides(
            bdd_cache_dir=self.bdd_dir)
        if request.base is not None:
            self.metrics.counter("serve.delta.requests").add(1)
            try:
                fingerprint = resolve_base(request.base, config,
                                           tasks=self._task_sources)
            except ApiError:
                raise ProtocolError(
                    f"unknown base {request.base!r}: not a reachability "
                    f"fingerprint, a previously checked task name, or a "
                    f"corpus entry", status=404) from None
            config = config.with_overrides(base_fingerprint=fingerprint)
        if request.entry is not None:
            try:
                task = corpus_task(request.entry, config, request.checks)
            except KeyError as error:
                raise ProtocolError(str(error), status=404) from None
        else:
            task = SweepTask(
                name=request.name or anonymous_name(request.g_text),
                g_text=request.g_text, config=config, checks=request.checks)
        name = request.name or task.name
        self._task_sources[name] = task.g_text
        return replace(task, name=name, delay=request.delay,
                       provenance={"backend": "serve"})

    # ------------------------------------------------------------------
    # Execution (single-flight, store-backed)
    # ------------------------------------------------------------------
    def flight_lock(self, fingerprint: str) -> asyncio.Lock:
        """The single-flight lock of one task fingerprint."""
        lock = self._flights.get(fingerprint)
        if lock is None:
            lock = self._flights[fingerprint] = asyncio.Lock()
        return lock

    async def run_task(self, task: SweepTask,
                       executor: Optional[object] = None) -> EntryResult:
        """Serve a task from the warm stores, computing at most once.

        The double-checked single-flight dance: a RunStore hit is free;
        on a miss the fingerprint's lock serialises concurrent
        duplicates, and whoever wins re-checks the store before paying
        for :func:`execute_payload_async`.  The losers then hit the
        record the winner persisted -- N concurrent identical requests
        run one traversal (the concurrency tests assert exactly that
        through these counters).
        """
        hit = self.run_store.lookup(task.name, task.fingerprint)
        if hit is not None:
            self.metrics.counter("serve.runstore.hits").add(1)
            return hit
        self.metrics.counter("serve.runstore.misses").add(1)
        async with self.flight_lock(task.fingerprint):
            hit = self.run_store.lookup(task.name, task.fingerprint)
            if hit is not None:
                self.metrics.counter("serve.runstore.hits").add(1)
                return hit
            payload = await execute_payload_async(task.to_payload(),
                                                  executor=executor)
            result = EntryResult.from_dict(payload)
            self.run_store.put(result)
            return result

    # ------------------------------------------------------------------
    # Introspection (the /metrics half)
    # ------------------------------------------------------------------
    def observe_stores(self) -> None:
        """Refresh the store-health gauges ahead of a metrics snapshot."""
        self.metrics.gauge("serve.bdd.hits").set(self.bdd_store.hits)
        self.metrics.gauge("serve.bdd.misses").set(self.bdd_store.misses)
        self.metrics.gauge("serve.bdd.invalidations").set(
            self.bdd_store.invalidations)
        self.metrics.gauge("serve.bdd.delta_hits").set(
            self.bdd_store.delta_hits)
        self.metrics.gauge("serve.bdd.delta_seeds").set(
            self.bdd_store.delta_seeds)
        self.metrics.gauge("serve.bdd.delta_colds").set(
            self.bdd_store.delta_colds)
        self.metrics.gauge("serve.runstore.records").set(
            len(self.run_store))
