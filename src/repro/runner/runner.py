"""The sweep orchestrator: cache triage, backend dispatch, collection.

:class:`SweepRunner` executes one :class:`~repro.runner.plan.SweepPlan`
shard end to end:

1. **Cache triage** -- every task whose ``(name, fingerprint)`` has a
   valid record in the :class:`~repro.runner.store.RunStore` is served
   from the cache (marked ``cached``) and never scheduled.  This is also
   what makes an interrupted sweep resumable: rerunning the same plan
   against the same store only schedules the missing fingerprints.
2. **Execution** -- the remaining tasks run on the selected
   :class:`~repro.runner.backends.ExecutorBackend` (``process`` worker
   pool by default, the ``serial`` in-process loop, or any registered
   plug-in), bounded by ``jobs``.
3. **Collection** -- every result is persisted into the RunStore *as it
   completes* (a killed sweep keeps everything already finished), stamped
   with its execution provenance (backend, shard), and returned in plan
   order, so the output is deterministic regardless of backend, worker
   count or completion order.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import Callable, List, Optional, Union

from repro.runner import backends as backend_registry
from repro.runner.backends import ExecutorBackend
from repro.runner.plan import SweepPlan
from repro.runner.results import EntryResult, SweepResult
from repro.runner.store import RunStore

ProgressCallback = Callable[[EntryResult], None]


class SweepRunner:
    """Execute one sweep plan shard, optionally against a result cache.

    ``backend`` selects the execution backend -- a registered name, an
    :class:`~repro.runner.backends.ExecutorBackend` instance, or ``None``
    to use the plan's ``backend`` (falling back to the ``process``
    default).  ``progress`` (when given) is invoked with every finished
    :class:`EntryResult` as it becomes available -- cache hits first, then
    computed results in completion order.
    """

    def __init__(self, plan: SweepPlan, store: Optional[RunStore] = None,
                 progress: Optional[ProgressCallback] = None,
                 backend: Union[ExecutorBackend, str, None] = None) -> None:
        self.plan = plan
        self.store = store
        self.progress = progress
        self.backend = backend_registry.resolve(backend or plan.backend)
        # Backends may emit from worker threads; everything the runner
        # mutates on emit (results, store, progress) happens under this.
        self._emit_lock = threading.Lock()

    def run(self) -> SweepResult:
        tasks = self.plan.shard_tasks()
        results: List[Optional[EntryResult]] = [None] * len(tasks)

        # NB: RunStore has __len__, so an empty store is falsy -- every
        # store test here must be an identity check, not truthiness.
        # Fresh tasks are stamped with their execution provenance so the
        # worker's trace meta records who ran what where; the stamp is
        # outside every fingerprint, so cache triage happens first.
        provenance = {"backend": self.backend.name,
                      "shard": str(self.plan.shard)}
        fresh: List[backend_registry.WorkItem] = []
        for position, task in enumerate(tasks):
            cached = (self.store.lookup(task.name, task.fingerprint)
                      if self.store is not None else None)
            if cached is not None:
                results[position] = cached
                self._report_progress(cached)
            else:
                fresh.append((position,
                              replace(task, provenance=dict(provenance))))

        if fresh:
            self.backend.execute(fresh, self.plan.jobs,
                                 self._make_emit(results))

        return SweepResult(
            engine=self.plan.engine, jobs=self.plan.jobs,
            shard=str(self.plan.shard), backend=self.backend.name,
            results=list(results))

    def _make_emit(self, results: List[Optional[EntryResult]]):
        """The collection callback handed to the backend.

        Stamps execution provenance, persists the result immediately (so
        a killed sweep loses only in-flight tasks, not finished ones) and
        forwards it to the progress callback -- all under the emit lock,
        because a plug-in backend may call this from several threads.
        """
        provenance = {"backend": self.backend.name,
                      "shard": str(self.plan.shard)}
        def emit(position: int, result: EntryResult) -> None:
            result.provenance = dict(provenance)
            with self._emit_lock:
                results[position] = result
                if self.store is not None:
                    self.store.put(result)
                self._report_progress(result)
        return emit

    def _report_progress(self, result: EntryResult) -> None:
        if self.progress is not None:
            self.progress(result)


def run_sweep(plan: SweepPlan, cache_dir: Optional[str] = None,
              progress: Optional[ProgressCallback] = None,
              backend: Union[ExecutorBackend, str, None] = None
              ) -> SweepResult:
    """Convenience front door: build the store (if any) and run the plan."""
    store = RunStore(cache_dir) if cache_dir else None
    return SweepRunner(plan, store=store, progress=progress,
                       backend=backend).run()
