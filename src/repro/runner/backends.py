"""Execution backends of the sweep runner: how fresh tasks actually run.

The :class:`~repro.runner.runner.SweepRunner` decides *what* to execute
(cache triage, result ordering, persistence); an :class:`ExecutorBackend`
decides *how* -- in-process, on a thread pool, or on a pool of worker
processes.  The module mirrors :mod:`repro.engines`: a small protocol, a
:class:`~repro.utils.registry.Registry` whose bound methods are
``register`` / ``unregister`` / ``available`` / ``get`` (unknown names
raise :class:`UnknownBackendError`), and built-in implementations::

    from repro.runner import backends

    backends.available()       # ["process", "thread", "serial", "asyncio"]
    backend = backends.get("thread")

    backends.register("remote", MyRemoteBackend())   # plug-ins welcome

Every backend receives the same ``(position, SweepTask)`` work items and
reports each finished :class:`~repro.runner.results.EntryResult` through
an ``emit`` callback, so the runner's output -- plan-ordered results,
:meth:`~repro.runner.results.SweepResult.stable_json_dict` -- is
byte-identical across backends (the parity tests and the CI sweep matrix
pin exactly that).  The differences are operational:

``process`` (the default)
    One worker process per task, bounded by ``jobs``.  The only backend
    that enforces per-entry timeouts (the scheduler terminates the
    worker) and survives hard crashes of a check.  With ``jobs=1`` it
    degrades to in-process execution -- zero fork overhead, the historic
    ``--jobs 1`` behaviour.
``thread``
    A ``jobs``-wide thread pool in this process.  No fork/spawn cost and
    shared imports, but no timeout enforcement and no isolation from
    interpreter-killing failures; best for IO-dominated or many-tiny-task
    sweeps.
``serial``
    Plain in-process loop, ignoring ``jobs``.  The reference
    implementation the others are compared against, and the easiest to
    debug (a ``pdb`` session sees the whole sweep).
``asyncio``
    An asyncio event loop driving a ``jobs``-wide thread pool through
    :func:`~repro.runner.worker.execute_payload_async` -- the exact
    machinery the :mod:`repro.serve` daemon schedules requests with, so
    the service's execution path is a first-class, parity-gated sweep
    backend.  Operationally like ``thread`` (no timeout enforcement,
    shared process); the event loop is owned by ``execute`` and must
    not already be running on the calling thread.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import (
    Callable,
    List,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.runner.plan import PlanError, SweepTask
from repro.runner.results import EntryResult
from repro.runner.worker import (
    child_main,
    execute_payload,
    execute_payload_async,
)
from repro.utils.registry import Registry, UnknownNameError

#: One unit of backend work: the task plus its position in the shard's
#: result list (``emit`` must be called with exactly that position).
WorkItem = Tuple[int, SweepTask]
EmitCallback = Callable[[int, EntryResult], None]

#: Seconds the process-pool scheduler sleeps when no worker produced
#: anything.
_POLL_INTERVAL = 0.005
#: Grace period for draining the result pipe of an already-exited worker.
_EXIT_DRAIN_TIMEOUT = 0.05


class UnknownBackendError(UnknownNameError, PlanError):
    """The requested execution backend is not registered."""

    kind = "execution backend"


@runtime_checkable
class ExecutorBackend(Protocol):
    """The execution protocol: run work items, emit results as they finish.

    ``execute`` must call ``emit(position, result)`` exactly once per
    item, in any order and from any thread (the runner serialises its
    side).  ``supports_timeouts`` advertises whether per-entry timeouts
    are enforced; backends without it simply let a slow task run.
    """

    name: str
    supports_timeouts: bool

    def execute(self, items: Sequence[WorkItem], jobs: int,
                emit: EmitCallback) -> None:
        """Run every work item with at most ``jobs``-way concurrency."""
        ...  # pragma: no cover - protocol


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
_REGISTRY: Registry[ExecutorBackend] = Registry(UnknownBackendError)
register = _REGISTRY.register
unregister = _REGISTRY.unregister
available = _REGISTRY.available
get = _REGISTRY.get

#: The backend used when neither the plan nor the runner names one.
DEFAULT_BACKEND = "process"


def resolve(backend) -> ExecutorBackend:
    """Coerce ``None`` / a name / an instance into a backend object."""
    if backend is None:
        return get(DEFAULT_BACKEND)
    if isinstance(backend, str):
        return get(backend)
    return backend


# ----------------------------------------------------------------------
# Built-in backends
# ----------------------------------------------------------------------
def _execute_inline(items: Sequence[WorkItem], emit: EmitCallback) -> None:
    """Shared in-process loop (serial backend, process backend at jobs=1).

    Entry-level failures are still captured by the worker module;
    per-entry timeouts need process isolation and are not enforced here.
    """
    for position, task in items:
        emit(position,
             EntryResult.from_dict(execute_payload(task.to_payload())))


class SerialBackend:
    """Plain in-process execution, one task after another."""

    name = "serial"
    supports_timeouts = False

    def execute(self, items: Sequence[WorkItem], jobs: int,
                emit: EmitCallback) -> None:
        _execute_inline(items, emit)


class ThreadBackend:
    """A ``jobs``-wide thread pool in the current process.

    Each task builds its own pipeline/BDD manager, so tasks never share
    mutable engine state; the GIL still serialises pure-Python engine
    work, which makes this backend shine on IO-dominated sweeps and
    many-tiny-task plans rather than single huge traversals.
    """

    name = "thread"
    supports_timeouts = False

    def execute(self, items: Sequence[WorkItem], jobs: int,
                emit: EmitCallback) -> None:
        def run_one(item: WorkItem) -> None:
            position, task = item
            emit(position,
                 EntryResult.from_dict(execute_payload(task.to_payload())))

        with ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
            # list() propagates the first worker exception, if any.
            list(pool.map(run_one, items))


class AsyncioBackend:
    """An event loop scheduling tasks onto a bounded thread pool.

    The sweep-facing face of the :mod:`repro.serve` execution machinery:
    each work item becomes a coroutine that awaits
    :func:`~repro.runner.worker.execute_payload_async` under a
    ``jobs``-wide semaphore, exactly how the daemon's worker coroutines
    run queued jobs.  Results are emitted from the event-loop thread as
    their coroutines complete; like every backend, the runner re-orders
    them into plan order, so stable JSON is byte-identical with
    ``process``/``thread``/``serial`` (the sweep gate proves it).

    ``execute`` owns its event loop via :func:`asyncio.run`; calling it
    from a thread that already runs a loop is an error (the daemon does
    not -- it awaits the shared primitive directly).
    """

    name = "asyncio"
    supports_timeouts = False

    def execute(self, items: Sequence[WorkItem], jobs: int,
                emit: EmitCallback) -> None:
        asyncio.run(self._execute(list(items), max(1, jobs), emit))

    async def _execute(self, items: Sequence[WorkItem], jobs: int,
                       emit: EmitCallback) -> None:
        semaphore = asyncio.Semaphore(jobs)

        async def run_one(position: int, task: SweepTask) -> None:
            async with semaphore:
                result = await execute_payload_async(
                    task.to_payload(), executor=pool)
            emit(position, EntryResult.from_dict(result))

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            await asyncio.gather(*(run_one(position, task)
                                   for position, task in items))


class ProcessBackend:
    """One worker process per task, bounded concurrency (the default).

    Per-process isolation is what makes per-entry timeouts enforceable
    (the scheduler terminates the worker) and worker crashes reportable
    without losing the sweep.  ``jobs=1`` runs in-process instead: zero
    fork overhead, exceptions still captured per entry (the historic
    sequential mode; timeouts need ``jobs >= 2``).
    """

    name = "process"
    supports_timeouts = True

    def execute(self, items: Sequence[WorkItem], jobs: int,
                emit: EmitCallback) -> None:
        if jobs == 1:
            _execute_inline(items, emit)
            return
        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")
        pending = deque(items)
        active: List[dict] = []
        try:
            while pending or active:
                while pending and len(active) < jobs:
                    active.append(self._start_worker(
                        context, *pending.popleft()))
                progressed = False
                for slot in list(active):
                    result = self._poll_worker(slot)
                    if result is None:
                        continue
                    emit(slot["position"], result)
                    active.remove(slot)
                    progressed = True
                if not progressed:
                    time.sleep(_POLL_INTERVAL)
        finally:
            for slot in active:  # interrupted sweep: don't leak workers
                slot["process"].terminate()
                slot["process"].join()
                slot["connection"].close()

    def _start_worker(self, context, position: int, task: SweepTask) -> dict:
        receiver, sender = context.Pipe(duplex=False)
        process = context.Process(
            target=child_main, args=(sender, task.to_payload()), daemon=True)
        process.start()
        sender.close()  # the child holds the only write end now
        deadline = (time.monotonic() + task.timeout
                    if task.timeout is not None else None)
        return {"position": position, "task": task, "process": process,
                "connection": receiver, "deadline": deadline}

    def _poll_worker(self, slot: dict) -> "EntryResult | None":
        """Collect a finished/failed/expired worker; ``None`` if running."""
        process, connection = slot["process"], slot["connection"]
        task: SweepTask = slot["task"]
        if connection.poll(0):
            result = self._receive(slot)
        elif not process.is_alive():
            # Exited without a visible result: drain the pipe once more
            # (the write may still be in flight), then report the crash.
            if connection.poll(_EXIT_DRAIN_TIMEOUT):
                result = self._receive(slot)
            else:
                result = self._failure(
                    task, "error",
                    f"worker exited with code {process.exitcode} "
                    f"before reporting a result")
        elif slot["deadline"] is not None \
                and time.monotonic() > slot["deadline"]:
            process.terminate()
            result = self._failure(
                task, "timeout", f"timed out after {task.timeout:g}s "
                f"(worker terminated)")
        else:
            return None
        process.join()
        connection.close()
        return result

    def _receive(self, slot: dict) -> EntryResult:
        try:
            return EntryResult.from_dict(slot["connection"].recv())
        except (EOFError, OSError) as error:
            return self._failure(
                slot["task"], "error",
                f"worker result pipe closed unexpectedly: {error}")

    @staticmethod
    def _failure(task: SweepTask, status: str, message: str) -> EntryResult:
        return EntryResult(
            name=task.name, status=status, engine=task.engine,
            fingerprint=task.fingerprint, error=message)


register("process", ProcessBackend())
register("thread", ThreadBackend())
register("serial", SerialBackend())
register("asyncio", AsyncioBackend())
