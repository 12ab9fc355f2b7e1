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
  store to *edited* specifications: :meth:`WarmState.resolve_base`
  turns the reference into a fingerprint and the engine's delta
  warm-start seeds the traversal from the base entry),
* the interned corpus materialisations and raw ``.g`` texts (repeat
  requests re-use the parsed entry data instead of re-expanding it),
* the per-fingerprint single-flight locks (N concurrent requests for
  the same content cost one computation), and
* the daemon-wide :class:`~repro.obs.metrics.MetricsRegistry` that
  ``GET /metrics`` snapshots.

Task construction mirrors :class:`~repro.runner.plan.SweepPlan`
expansion exactly -- same name, canonical text, arbitration-place
specialisation and normalised expected metadata -- so a daemon verdict
is byte-identical (stable view) to the ``batch-check`` verdict for the
same entry.  Client configs pass through
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
import re
from typing import Dict, Optional, Tuple

from repro.api.config import EngineConfig
from repro.cache import BDDStore, reachable_fingerprint
from repro.obs import MetricsRegistry
from repro.runner.plan import SweepTask, normalise_expected
from repro.runner.results import EntryResult
from repro.runner.store import RunStore
from repro.runner.worker import execute_payload
from repro.serve.protocol import CheckRequest, ProtocolError, anonymous_name

_FINGERPRINT = re.compile(r"[0-9a-f]{64}")

#: Subdirectories of the daemon state directory.
RUN_STORE_DIR = "run-store"
BDD_STORE_DIR = "bdd-store"

#: Interned material of one verification subject: cache name, canonical
#: ``.g`` text, arbitration places and normalised expected verdicts.
_Material = Tuple[str, str, Tuple[str, ...], Dict[str, object]]


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
        self._corpus_materials: Dict[str, _Material] = {}
        self._g_texts: Dict[str, str] = {}
        self._flights: Dict[str, asyncio.Lock] = {}
        #: Task name -> raw ``.g`` text of every task this daemon has
        #: built, so a later request can say ``base=<that name>``.
        self._task_sources: Dict[str, str] = {}
        #: (name, raw text) -> canonical text, as the worker would
        #: serialise it (parse under the task name, write back).
        self._canonical_texts: Dict[Tuple[str, str], str] = {}
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

        Corpus requests expand exactly like
        :meth:`~repro.runner.plan.SweepPlan.tasks` does -- including the
        arbitration-place specialisation from registry metadata -- so
        the fingerprint (and therefore the RunStore key and the stable
        verdict) matches a ``batch-check`` run of the same entry.
        """
        if request.entry is not None:
            name, g_text, arbitration, expected = \
                self._corpus_material(request.entry)
            if request.name is not None:
                name = request.name
        else:
            g_text = self._intern_g_text(request.g_text)
            name = request.name or anonymous_name(g_text)
            arbitration = None
            expected = {}
        try:
            config = EngineConfig.from_dict(dict(request.config or {}))
        except Exception as error:
            raise ProtocolError(f"invalid engine config: {error}") from None
        config = config.without_execution_knobs().with_overrides(
            bdd_cache_dir=self.bdd_dir)
        if arbitration is not None:
            config = config.with_overrides(
                arbitration_places=tuple(arbitration))
        if request.base is not None:
            self.metrics.counter("serve.delta.requests").add(1)
            config = config.with_overrides(
                base_fingerprint=self.resolve_base(request.base, config))
        self._task_sources[name] = g_text
        return SweepTask(name=name, g_text=g_text, config=config,
                         expected=expected, delay=request.delay,
                         checks=request.checks,
                         provenance={"backend": "serve"})

    def resolve_base(self, base: str, config: EngineConfig) -> str:
        """Turn a request's ``base`` reference into a BDD-store fingerprint.

        Accepts a raw 64-hex reachability fingerprint (as echoed in the
        ``base`` field of delta ``queued`` events -- distinct from the
        event's ``fingerprint``, which keys the RunStore), the task
        name of an earlier request on this daemon, or a corpus entry
        name; anything else is a 404
        :class:`ProtocolError`.  Names are canonicalised exactly the way
        the worker stores entries -- parse the task's text under its
        name, write it back -- so the fingerprint matches what the base
        run deposited in the shared store.
        """
        if _FINGERPRINT.fullmatch(base):
            return base
        g_text = self._task_sources.get(base)
        name = base
        if g_text is None:
            try:
                name, g_text, _, _ = self._corpus_material(base)
            except ProtocolError:
                raise ProtocolError(
                    f"unknown base {base!r}: not a reachability "
                    f"fingerprint, a previously checked task name, or a "
                    f"corpus entry", status=404) from None
        return reachable_fingerprint(self._canonical_text(name, g_text),
                                     config)

    def _canonical_text(self, name: str, g_text: str) -> str:
        """The worker-side canonical serialisation of a task's text."""
        key = (name, g_text)
        canonical = self._canonical_texts.get(key)
        if canonical is None:
            from repro.stg.parser import parse_g
            from repro.stg.writer import to_g_string

            canonical = to_g_string(parse_g(g_text, name=name))
            self._canonical_texts[key] = canonical
        return canonical

    def _corpus_material(self, entry_name: str) -> _Material:
        """The interned materialisation of a registered corpus entry.

        Computed once per entry name for the daemon's lifetime:
        ``g_text`` materialisation can mean running a family builder,
        which repeat requests must not pay again.
        """
        material = self._corpus_materials.get(entry_name)
        if material is None:
            from repro import corpus

            try:
                entry = corpus.entry(entry_name)
            except Exception as error:
                raise ProtocolError(str(error), status=404) from None
            material = (entry.name, entry.g_text,
                        tuple(entry.arbitration_places),
                        normalise_expected(entry.expected))
            self._corpus_materials[entry_name] = material
        return material

    def _intern_g_text(self, g_text: str) -> str:
        """One canonical string object per distinct ``.g`` source."""
        return self._g_texts.setdefault(g_text, g_text)

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
        self.metrics.gauge("serve.intern.entries").set(
            len(self._corpus_materials) + len(self._g_texts))
