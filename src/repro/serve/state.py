"""The daemon's process-wide warm state.

What makes ``repro.serve`` *always-warm* is that nothing request-scoped
owns a cache: one :class:`WarmState` object lives for the daemon's whole
life and owns

* the :class:`~repro.runner.store.RunStore` of finished verdicts
  (repeat requests for the same task content are served without running
  anything),
* the shared :class:`~repro.cache.BDDStore` directory, one
  ``<fingerprint>.bdd`` file per reachable set (a repeat request that
  *does* recompute -- say, a different check subset over the same
  specification -- still skips the reachability traversal; the store's
  hit and miss counters, the ``serve.bdd.*`` counters, prove it; the
  store object holds those counters and nothing per request.
  Schema-2 ``base`` requests stretch the same store to *edited*
  specifications: the facade's
  :func:`~repro.api.facade.resolve_base` turns the reference into a
  fingerprint and the engine's delta warm-start seeds the traversal
  from the base's file),
* the table of task texts by name, so a later request can say
  ``base=<an earlier task's name>`` (the :data:`TASK_SOURCES` most
  recently used names: building a task and resolving its name as a
  base both count as a use, so an editor's base stays while the
  editor re-checks against it),
* the one compute turn (checks run one at a time, in arrival order;
  N concurrent requests for the same content cost one computation,
  because whoever gets the turn after the first looks the RunStore up
  again), and
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
the daemon's compute thread -- the serve layer never touches engine
internals (analyzer rule RA203 pins that).  The checks are pure-Python
BDD walks that hold the GIL throughout, so two threads computing at
once would only trade it every switch interval and both finish late;
the compute turn runs them one after the other instead, while the event
loop keeps answering RunStore hits, ``/healthz`` and ``/metrics``.
"""

from __future__ import annotations

import asyncio
import contextvars
import os
from collections import OrderedDict
from dataclasses import replace
from typing import Dict, Optional

from repro import obs
from repro.api.config import EngineConfig
from repro.api.errors import ApiError
from repro.api.facade import resolve_base
from repro.cache import BDDStore
from repro.obs import Counter, MetricsRegistry
from repro.runner.plan import SweepTask, corpus_task
from repro.runner.results import EntryResult
from repro.runner.store import RunStore
from repro.runner.worker import execute_payload
from repro.serve.protocol import CheckRequest, ProtocolError, anonymous_name

#: Subdirectories of the daemon state directory.
RUN_STORE_DIR = "run-store"
BDD_STORE_DIR = "bdd-store"
#: How many task names (the most recently used) keep their ``.g`` text
#: for ``base=<name>``; an older name resolves like any unknown one.
TASK_SOURCES = 256


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
        #: The one compute turn: a RunStore miss holds it from its
        #: second lookup until its record is stored.  An asyncio lock
        #: wakes its waiters first come, first served.
        self._compute_turn = asyncio.Lock()
        #: Task name -> raw ``.g`` text of the :data:`TASK_SOURCES`
        #: most recently used task names, least recent first, so a later
        #: request can say ``base=<that name>``.
        self._task_sources: "OrderedDict[str, str]" = OrderedDict()
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
        self.metrics.histogram("serve.compute_wait.seconds")
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
            if request.base in self._task_sources:
                self._task_sources.move_to_end(request.base)
            try:
                fingerprint = resolve_base(request.base, config,
                                           tasks=self._task_sources)
            except ApiError:
                raise ProtocolError(
                    f"unknown base {request.base!r}: not a reachability "
                    f"fingerprint, one of the last {TASK_SOURCES} task "
                    f"names used, or a corpus entry; re-send the base's "
                    f"g_text under that name, or quote its reachability "
                    f"fingerprint (the 'base' field of an earlier "
                    f"queued event)", status=404) from None
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
        self._task_sources.move_to_end(name)
        while len(self._task_sources) > TASK_SOURCES:
            self._task_sources.popitem(last=False)
        return replace(task, name=name, delay=request.delay,
                       provenance={"backend": "serve"})

    # ------------------------------------------------------------------
    # Execution (one compute turn, store-backed)
    # ------------------------------------------------------------------
    async def run_task(self, task: SweepTask,
                       executor: Optional[object] = None) -> EntryResult:
        """Serve a task from the warm stores, computing one at a time.

        A RunStore hit is answered at once.  A miss waits for the
        daemon's compute turn (the ``compute_wait`` span and the
        ``serve.compute_wait.seconds`` histogram), looks the store up
        again and only then pays for :func:`execute_payload_async`.
        Whoever held the turn before stored its record first, so the
        second lookup is what coalesces concurrent duplicates: N
        concurrent identical requests run one traversal (the
        concurrency tests assert exactly that through these counters).
        """
        hit = self.run_store.lookup(task.name, task.fingerprint)
        if hit is not None:
            self.metrics.counter("serve.runstore.hits").add(1)
            return hit
        self.metrics.counter("serve.runstore.misses").add(1)
        with obs.timed("compute_wait") as wait:
            await self._compute_turn.acquire()
        try:
            self.metrics.histogram("serve.compute_wait.seconds").observe(
                wait.duration_s)
            hit = self.run_store.lookup(task.name, task.fingerprint)
            if hit is not None:
                self.metrics.counter("serve.runstore.hits").add(1)
                return hit
            payload = await execute_payload_async(task.to_payload(),
                                                  executor=executor)
            result = EntryResult.from_dict(payload)
            self.run_store.put(result)
            return result
        finally:
            self._compute_turn.release()

    # ------------------------------------------------------------------
    # Introspection (the /metrics half)
    # ------------------------------------------------------------------
    def observe_stores(self) -> None:
        """Bring the store metrics up to date ahead of a snapshot.

        The BDD store's totals only grow, so each ``serve.bdd.*``
        counter adds what its total gained since the last observation;
        ``serve.runstore.records`` is a gauge, as a gc can lower it.
        """
        store = self.bdd_store
        _follow(self.metrics.counter("serve.bdd.hits"), store.hits)
        _follow(self.metrics.counter("serve.bdd.misses"), store.misses)
        _follow(self.metrics.counter("serve.bdd.delta_hits"),
                store.delta_hits)
        _follow(self.metrics.counter("serve.bdd.delta_seeds"),
                store.delta_seeds)
        _follow(self.metrics.counter("serve.bdd.delta_colds"),
                store.delta_colds)
        self.metrics.gauge("serve.runstore.records").set(
            len(self.run_store))


def _follow(counter: Counter, total: int) -> None:
    """Advance ``counter`` to a running total that never decreases."""
    counter.add(total - counter.value)
