"""The lease-based sweep coordinator: work stealing over sweep entries.

:class:`LeaseCoordinator` replaces the static ``--shard I/N``
round-robin with an elastic dispatch loop.  Where
:class:`~repro.runner.runner.SweepRunner` hands a backend its fixed
slice once, the coordinator runs *rounds*: each round claims leases
over every entry still pending (longest-job-first, using the duration
history already in the :class:`~repro.runner.store.RunStore`), hands
the claimed batch to the ordinary execution backend
(:mod:`repro.runner.backends`), and releases each
lease as its result lands.  Entries whose result was retryable
(``error``/``timeout``) are re-issued in a later round under the
:class:`~repro.fabric.policy.RetryPolicy`'s backoff; entries whose
lease was lost -- a holder that stopped renewing, a store write torn
mid-append -- are re-issued once the lease expires, which is the
work-stealing guarantee: a dead worker's entries never strand.

Determinism survives all of it: verification is a pure function of the
task fingerprint, so *when* and *how often* an entry runs cannot change
its verdict, retry/lease bookkeeping rides only
:attr:`~repro.runner.results.EntryResult.provenance` (stripped from
stable views; analyzer rule RA205), and the sweep gate's chaos leg pins
byte-identical stable JSON between a fault-injected lease sweep and a
clean serial one.

SIGINT/SIGTERM drain gracefully: the current round finishes, no new
round starts, every already-finished entry is kept (persisted in the
RunStore the moment it landed) and the entries never run are reported
as ``error`` records naming the drain.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from dataclasses import replace
from typing import Dict, List, Optional, Union

from repro import obs
from repro.faults import FaultPlan, plan_from_config, torn_write
from repro.fabric.leases import Lease, LeaseStore
from repro.fabric.policy import RetryPolicy
from repro.runner import backends
from repro.runner.plan import SweepPlan, SweepTask
from repro.runner.results import EntryResult, SweepResult
from repro.runner.runner import ProgressCallback
from repro.runner.store import RunStore
from repro.utils.journal import atomic_write

#: File the coordinator snapshots its metrics registry into (inside the
#: lease directory); the sweep gate's chaos leg reads it to assert every
#: injected fault kind actually exercised its recovery path.
METRICS_FILE = "metrics.json"


def lease_key(task: SweepTask) -> str:
    """The lease key of a sweep entry: name + content fingerprint."""
    return f"{task.name}::{task.fingerprint}"


class LeaseCoordinator:
    """Run one sweep plan through lease-based work stealing.

    Parameters
    ----------
    plan:
        The sweep plan (its shard is honoured, so lease coordination
        composes with sharding; the common case is the full plan).
    leases:
        The :class:`~repro.fabric.leases.LeaseStore` (or its directory)
        entries are claimed from.  Shared state: coordinators on one
        host pointed at the same directory never hold a valid lease on
        the same entry at once, whenever each of them started.
    store:
        Optional result cache, exactly as for the plain runner; also
        the source of the duration history behind longest-job-first
        issue order.  Coordinators that also share the store compute
        each entry once: a result is stored before its lease is
        released, and a fresh claim is answered from the store when
        the entry's verdict already landed there.
    policy:
        The :class:`~repro.fabric.policy.RetryPolicy`; defaults to
        3 attempts with seeded-jitter exponential backoff.
    backend:
        Execution backend name (the plan's, else the default, when
        ``None``) -- the coordinator dispatches through the ordinary
        backend, it does not replace it.
    lease_duration:
        Seconds a claim/renewal is valid for.  In-flight leases are
        renewed every quarter duration, so only a holder that stops
        renewing (crash, wedge, injected stall) lets its lease expire.
    """

    def __init__(self, plan: SweepPlan,
                 leases: Union[LeaseStore, str],
                 store: Optional[RunStore] = None,
                 policy: Optional[RetryPolicy] = None,
                 backend: Optional[str] = None,
                 progress: Optional[ProgressCallback] = None,
                 lease_duration: float = 30.0,
                 holder: Optional[str] = None) -> None:
        self.plan = plan
        self.leases = (leases if isinstance(leases, LeaseStore)
                       else LeaseStore(leases))
        self.store = store
        self.policy = policy or RetryPolicy()
        self.backend = backends.resolve(backend or plan.backend)
        self.progress = progress
        if lease_duration <= 0:
            raise ValueError(
                f"lease_duration must be positive, got {lease_duration}")
        self.lease_duration = float(lease_duration)
        self.holder = holder or f"coordinator-{os.getpid()}"
        self.metrics = obs.MetricsRegistry()
        self._emit_lock = threading.Lock()
        self._draining = threading.Event()
        self._rounds = 0

    # ------------------------------------------------------------------
    # Drain control
    # ------------------------------------------------------------------
    def request_drain(self) -> None:
        """Stop issuing new rounds; the current round finishes normally."""
        self._draining.set()

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def _install_signal_handlers(self):
        """SIGINT/SIGTERM -> drain.  Only possible from the main thread;
        elsewhere (tests, embedded use) drain via :meth:`request_drain`."""
        previous = {}
        def handler(signum, frame):
            self.request_drain()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[signum] = signal.signal(signum, handler)
            except ValueError:  # not the main thread
                break
        return previous

    @staticmethod
    def _restore_signal_handlers(previous) -> None:
        for signum, old in previous.items():
            signal.signal(signum, old)

    # ------------------------------------------------------------------
    # The dispatch loop
    # ------------------------------------------------------------------
    def run(self) -> SweepResult:
        tasks = self.plan.shard_tasks()
        results: List[Optional[EntryResult]] = [None] * len(tasks)
        pending: List[int] = []
        # Cache triage first, exactly like the plain runner: cached
        # verdicts are never leased at all.
        for position, task in enumerate(tasks):
            cached = (self.store.lookup(task.name, task.fingerprint)
                      if self.store is not None else None)
            if cached is not None:
                results[position] = cached
                self._report_progress(cached)
            else:
                pending.append(position)

        # The chaos dial rides the task configs (an execution knob); all
        # tasks of one plan share it.
        fault_plan = (plan_from_config(tasks[0].config.to_dict())
                      if tasks else None)
        previous_handlers = self._install_signal_handlers()
        #: Completed attempts per position (retry-policy accounting).
        attempts: Dict[int, int] = {p: 0 for p in pending}
        #: Dispatches per position (fault plans fire on dispatch 1 only).
        dispatches: Dict[int, int] = {p: 0 for p in pending}
        #: Not-before instants of retry backoff.
        not_before: Dict[int, float] = {}
        try:
            with obs.span("fabric.sweep", backend=self.backend.name,
                          entries=len(tasks)):
                while pending and not self.draining:
                    pending = self._run_round(
                        tasks, results, pending, attempts, dispatches,
                        not_before, fault_plan)
        finally:
            self._restore_signal_handlers(previous_handlers)
        for position in pending:
            if results[position] is not None:
                # A retryable attempt already landed; drain keeps it as
                # the entry's final word rather than inventing one.
                self._report_progress(results[position])
                continue
            # Drained before execution: an error record keeps the sweep
            # result complete without faking a verdict.
            task = tasks[position]
            result = EntryResult(
                name=task.name, status="error",
                engine=task.config.engine, fingerprint=task.fingerprint,
                error="sweep drained before this entry ran "
                      "(lease coordinator stopped)")
            result.provenance = self._provenance(
                attempt=dispatches.get(position, 0))
            results[position] = result
            self._report_progress(result)
        self._write_metrics()
        return SweepResult(
            engine=self.plan.engine, jobs=self.plan.jobs,
            shard=str(self.plan.shard), backend=self.backend.name,
            results=list(results))

    def _run_round(self, tasks, results, pending, attempts, dispatches,
                   not_before, fault_plan) -> List[int]:
        """Claim + dispatch one round; returns the next pending list."""
        self._rounds += 1
        now = time.monotonic()
        ready = [p for p in pending if not_before.get(p, 0.0) <= now]
        if not ready:
            # Everything pending is backing off; sleep to the earliest.
            wake = min(not_before[p] for p in pending)
            time.sleep(min(max(wake - now, 0.0), 1.0))
            return pending
        claimed: Dict[int, Lease] = {}
        batch: List[backends.WorkItem] = []
        done: List[int] = []
        for position in self._issue_order(tasks, ready):
            task = tasks[position]
            lease = self.leases.claim(
                lease_key(task), task.name, self.holder,
                self.lease_duration)
            if lease is None:
                continue  # validly leased elsewhere; steal after expiry
            self.metrics.counter("fabric.lease.claims").add(1)
            # Another coordinator sharing the store may have finished
            # the entry since triage: its verdict landed before its
            # release, so this lookup sees it.
            cached = (self.store.lookup(task.name, task.fingerprint)
                      if self.store is not None else None)
            if cached is not None:
                self.leases.release(lease, cached.status)
                results[position] = cached
                done.append(position)
                self._report_progress(cached)
                continue
            claimed[position] = lease
            dispatches[position] += 1
            batch.append((position, self._dispatch_task(
                task, dispatches[position], fault_plan)))
        self.metrics.counter("fabric.lease.reclaims").add(
            self.leases.reclaimed - self._reclaims_seen())
        if not batch:
            if not done:
                # All ready entries are leased by someone else: wait a
                # beat for those leases to expire or release.
                time.sleep(min(self.lease_duration / 4.0, 0.05))
            return [p for p in pending if p not in done]
        with obs.span("fabric.round", batch=len(batch)):
            stop_renewals = self._start_renewals(claimed, fault_plan, tasks)
            try:
                self.backend.execute(
                    batch, self.plan.jobs,
                    self._make_emit(tasks, results, claimed, attempts,
                                    dispatches, not_before, fault_plan,
                                    done))
            finally:
                stop_renewals()
        return [p for p in pending if p not in done]

    def _reclaims_seen(self) -> int:
        return int(self.metrics.counter("fabric.lease.reclaims").value)

    def _issue_order(self, tasks, ready: List[int]) -> List[int]:
        """Longest-job-first over the store's duration history.

        Entries with no history sort first (potentially long), then
        known durations descending; plan position breaks ties, so the
        order is deterministic for a given store state.
        """
        def sort_key(position: int):
            hint = (self.store.duration_hint(tasks[position].name)
                    if self.store is not None else None)
            if hint is None:
                return (0, 0.0, position)
            return (1, -hint, position)
        return sorted(ready, key=sort_key)

    def _dispatch_task(self, task: SweepTask, dispatch: int,
                       fault_plan: Optional[FaultPlan]) -> SweepTask:
        """The task as actually handed to the backend for this dispatch:
        provenance stamped, fault plan re-keyed to the attempt number
        (so injections fire on the first dispatch only)."""
        config = task.config
        if fault_plan is not None:
            config = config.with_overrides(
                fault_plan=fault_plan.for_attempt(dispatch).to_spec())
        return replace(task, config=config,
                       provenance=self._provenance(attempt=dispatch))

    def _provenance(self, attempt: int) -> Dict[str, str]:
        return {"backend": self.backend.name,
                "shard": str(self.plan.shard),
                "holder": self.holder,
                "attempt": str(attempt)}

    # ------------------------------------------------------------------
    # Renewals
    # ------------------------------------------------------------------
    def _start_renewals(self, claimed: Dict[int, Lease], fault_plan,
                        tasks):
        """Renew in-flight leases every quarter duration on a helper
        thread; returns the stop function.

        A ``stall``-injected entry is skipped -- its renewal loop has
        notionally wedged -- so its lease genuinely expires and the
        stale-release path fires.
        """
        stop = threading.Event()
        def loop() -> None:
            interval = self.lease_duration / 4.0
            while not stop.wait(interval):
                with self._emit_lock:
                    for position, lease in list(claimed.items()):
                        if self._stalled(tasks[position], fault_plan):
                            continue
                        renewed = self.leases.renew(
                            lease, self.lease_duration)
                        if renewed is not None:
                            claimed[position] = renewed
                            self.metrics.counter(
                                "fabric.lease.renewals").add(1)
        thread = threading.Thread(target=loop, name="lease-renewals",
                                  daemon=True)
        thread.start()
        def stopper() -> None:
            stop.set()
            thread.join()
        return stopper

    @staticmethod
    def _stalled(task: SweepTask, fault_plan: Optional[FaultPlan]) -> bool:
        return (fault_plan is not None
                and fault_plan.decides("stall", task.fingerprint))

    @staticmethod
    def _truncates(task: SweepTask,
                   fault_plan: Optional[FaultPlan]) -> bool:
        return (fault_plan is not None
                and fault_plan.decides("truncate", task.fingerprint))

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def _make_emit(self, tasks, results, claimed, attempts, dispatches,
                   not_before, fault_plan, done):
        def emit(position: int, result: EntryResult) -> None:
            with self._emit_lock:
                self._collect(position, result, tasks, results, claimed,
                              attempts, dispatches, not_before,
                              fault_plan, done)
        return emit

    def _collect(self, position, result, tasks, results, claimed,
                 attempts, dispatches, not_before, fault_plan,
                 done) -> None:
        task = tasks[position]
        lease = claimed.pop(position)
        first_dispatch = dispatches[position] == 1
        if first_dispatch and self._truncates(task, fault_plan):
            # Crash-mid-write: the record is torn on disk, the result
            # never reaches the in-memory store, and the lease is left
            # unreleased -- it expires, and a later round steals it.
            if self.store is not None:
                record = result.to_dict()
                record["stored_at"] = time.time()
                torn_write(self.store.path, record)
            self.metrics.counter("fabric.retry.truncated").add(1)
            obs.event("fault-injected", kind="truncate", entry=task.name)
            return
        if first_dispatch and self._stalled(task, fault_plan):
            # The holder's renewal loop wedged: by the time it releases,
            # the (un-renewed) lease has expired.  The store rejects the
            # stale release, the result is discarded, the entry re-runs.
            released = self.leases.release(
                lease, result.status, now=lease.deadline + 1.0)
            assert not released
            self.metrics.counter("fabric.retry.stalled").add(1)
            obs.event("fault-injected", kind="stall", entry=task.name)
            return
        result.provenance = self._provenance(attempt=dispatches[position])
        # Store before release: whoever claims the entry next must find
        # the verdict.  Storing a verdict whose lease turns out lost is
        # harmless (verdicts are deterministic per fingerprint, and
        # error/timeout records are never served).
        if self.store is not None:
            self.store.put(result)
        released = self.leases.release(lease, result.status)
        if not released:
            # Lease genuinely lost mid-flight (expired and possibly
            # re-claimed): this holder's result must be discarded --
            # whoever holds the lease now owns the entry.
            self.metrics.counter("fabric.lease.lost").add(1)
            return
        self.metrics.counter("fabric.lease.releases").add(1)
        attempts[position] += 1
        if self.policy.should_retry(result.status, attempts[position]):
            if result.status == "timeout":
                self.metrics.counter("fabric.retry.timeout").add(1)
            else:
                self.metrics.counter("fabric.retry.error").add(1)
            delay = self.policy.delay_for(attempts[position] + 1,
                                          task.fingerprint)
            not_before[position] = time.monotonic() + delay
            results[position] = result  # best-so-far, if retries exhaust
            obs.event("retry-scheduled", entry=task.name,
                      status=result.status, attempt=attempts[position])
            return
        results[position] = result
        done.append(position)
        self._report_progress(result)

    def _report_progress(self, result: EntryResult) -> None:
        if self.progress is not None:
            self.progress(result)

    # ------------------------------------------------------------------
    # Metrics snapshot
    # ------------------------------------------------------------------
    def _write_metrics(self) -> None:
        """Snapshot the fabric metrics into the lease directory.

        The chaos gate reads this file to assert every injected fault
        kind surfaced in ``fabric.retry.*``; operators read it to see
        how eventful a sweep was."""
        snapshot = {
            "rounds": self._rounds,
            "reclaimed": self.leases.reclaimed,
            "metrics": self.metrics.snapshot(),
        }
        atomic_write(os.path.join(self.leases.directory, METRICS_FILE),
                     lambda handle: handle.write(json.dumps(
                         snapshot, indent=2, sort_keys=True) + "\n"))
