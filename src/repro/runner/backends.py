"""Execution backends of the sweep runner: how fresh tasks actually run.

The :class:`~repro.runner.runner.SweepRunner` decides *what* to execute
(cache triage, result ordering, persistence); an :class:`ExecutorBackend`
decides *how* -- in this process, or on a pool of worker processes.  The
module mirrors :mod:`repro.engines`: a small protocol, a
:class:`~repro.utils.registry.Registry` whose bound methods are
``register`` / ``unregister`` / ``available`` / ``get`` (unknown names
raise :class:`UnknownBackendError`), and built-in implementations::

    from repro.runner import backends

    backends.available()       # ["process", "serial"]
    backend = backends.get("serial")

    backends.register("remote", MyRemoteBackend())   # plug-ins welcome

Every backend receives the same ``(position, SweepTask)`` work items and
reports each finished :class:`~repro.runner.results.EntryResult` through
an ``emit`` callback, so the runner's output -- plan-ordered results,
:meth:`~repro.runner.results.SweepResult.stable_json_dict` -- is
byte-identical across backends (the parity tests and the CI sweep matrix
pin exactly that).  Every backend honours ``timeout`` through the
cooperative deadline the engines check
(:func:`~repro.runner.worker.execute_payload`).  The differences are
operational:

``process`` (the default)
    One worker process per task, bounded by ``jobs``.  The only backend
    that runs entries in parallel, kills a wedged entry (the scheduler
    terminates the worker past its timeout) and survives a hard crash
    of a check.  With ``jobs=1`` it degrades to in-process execution --
    zero fork overhead, the historic ``--jobs 1`` behaviour.
``serial``
    Plain in-process loop, ignoring ``jobs``.  The reference
    implementation ``process`` is compared against, and the easiest to
    debug (a ``pdb`` session sees the whole sweep).

There is no thread-pool backend: the checks are pure-Python BDD
traversals that hold the GIL from parse to report, so a thread pool
cannot verify two entries at once and measured slower than ``serial``.
"""

from __future__ import annotations

import time
from collections import deque
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
from repro.runner.worker import child_main, execute_payload
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
    side).
    """

    name: str

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

    Entry-level failures are still captured by the worker module, and
    ``timeout`` holds through its cooperative deadline; nothing here can
    kill an entry that stops checking it.
    """
    for position, task in items:
        emit(position,
             EntryResult.from_dict(execute_payload(task.to_payload())))


class SerialBackend:
    """Plain in-process execution, one task after another."""

    name = "serial"

    def execute(self, items: Sequence[WorkItem], jobs: int,
                emit: EmitCallback) -> None:
        _execute_inline(items, emit)


class ProcessBackend:
    """One worker process per task, bounded concurrency (the default).

    Per-process isolation is what lets the scheduler kill a wedged
    entry past its timeout and report a worker crash without losing the
    sweep.  ``jobs=1`` runs in-process instead: zero fork overhead,
    exceptions still captured per entry and the cooperative deadline
    still honoured, but no kill (the historic sequential mode).
    """

    name = "process"

    def execute(self, items: Sequence[WorkItem], jobs: int,
                emit: EmitCallback) -> None:
        if jobs == 1:
            _execute_inline(items, emit)
            return
        # Imported here so that importing the runner loads no
        # multiprocessing machinery when no pool is started.
        import multiprocessing

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
register("serial", SerialBackend())
