"""Jobs: what travels from a request handler to a worker coroutine.

A :class:`Job` packages one accepted ``POST /check`` into everything a
daemon worker needs: the :class:`~repro.runner.plan.SweepTask` to run,
the per-job event queue the handler streams from, and a request-scoped
:class:`~repro.obs.trace.Tracer` whose span tree is
``request -> queue_wait`` on the handler side and (once a worker picks
the job up and activates the tracer around the execution primitive)
``request -> compute_wait`` (a RunStore miss waiting for the daemon's
one compute turn) and ``request -> entry -> parse/traversal/check...``
on the worker side.  The worker activates it only when something reads
those spans (:attr:`Job.traced`): a streamed request or a ``--trace``
directory.

The bridge between the two worlds is :class:`StreamSink`: a tracer sink
that forwards every closed span as a protocol ``stage`` event onto the
job's asyncio queue.  Most spans close on the *executor thread* while
the queue lives on the *event loop*, so the sink crosses over with
``loop.call_soon_threadsafe`` -- the only thread-safe way to wake a
pending ``queue.get()`` from outside the loop.  A span that closes on
the loop's own thread (``queue_wait``, ``compute_wait``,
``runstore.put``) is enqueued directly, so it lands in the order it
closed: ahead of the ``result`` the worker enqueues after it, never
behind the terminal event where no reader would see it.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Mapping, Optional

from repro import obs
from repro.runner.plan import SweepTask
from repro.serve import protocol

#: Spans deeper than this are not streamed to clients.  Depth 0 is the
#: ``request`` span (summarised by the terminal event, not forwarded),
#: depth 1 is ``queue_wait``/``compute_wait``/``entry``, depth 2 the
#: pipeline stages (``parse``, ``traversal``, one ``check`` span per
#: check).  Deeper kernel spans stay in the trace file (``--trace``),
#: not on the wire.
STREAM_DEPTH_LIMIT = 2


class StreamSink:
    """Tracer sink forwarding closed spans to a job's event queue.

    Built on the loop's thread (by the request handler), which it
    remembers to tell a span closing there from one closing on an
    executor thread.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop,
                 job: "Job") -> None:
        self._loop = loop
        self._loop_thread = threading.get_ident()
        self._job = job

    def emit(self, record: Mapping[str, object]) -> None:
        if record.get("type") != "span" or record.get("name") == "request":
            return
        if int(record.get("depth") or 0) > STREAM_DEPTH_LIMIT:
            return
        event = protocol.stage_event(self._job.id, record)
        if threading.get_ident() == self._loop_thread:
            self._job.events.put_nowait(event)
        else:
            self._loop.call_soon_threadsafe(self._job.events.put_nowait,
                                            event)


class Job:
    """One accepted check request on its way through the daemon."""

    def __init__(self, job_id: int, task: SweepTask,
                 loop: asyncio.AbstractEventLoop,
                 extra_sinks=(), stream: bool = False) -> None:
        self.id = job_id
        self.task = task
        #: Whether anything reads the worker-side spans: the streamed
        #: ``stage`` events or a trace file.  A plain request's reply
        #: carries neither, so its worker runs untraced.
        self.traced = stream or bool(extra_sinks)
        #: Events the handler streams to the client; workers (and the
        #: tracer sink) produce, exactly one handler consumes.
        self.events: "asyncio.Queue[dict]" = asyncio.Queue()
        self.tracer = obs.Tracer(
            sinks=[StreamSink(loop, self), *extra_sinks],
            meta={"entry": task.name, "fingerprint": task.fingerprint,
                  "provenance": {"backend": "serve"}})
        self._request_span = self.tracer.span("request", entry=task.name)
        self._request_span.__enter__()
        self._queue_span: Optional[obs.Span] = None

    # ------------------------------------------------------------------
    # Span lifecycle (handler enqueues, worker picks up, worker finishes)
    # ------------------------------------------------------------------
    def enqueued(self) -> None:
        """Open the ``queue_wait`` span (the handler just enqueued us)."""
        self._queue_span = self.tracer.span("queue_wait")
        self._queue_span.__enter__()

    def picked_up(self) -> None:
        """Close ``queue_wait`` (a worker owns the job now)."""
        if self._queue_span is not None:
            self._queue_span.__exit__(None, None, None)

    def finished(self, status: str) -> None:
        """Close the ``request`` span and the tracer."""
        self._request_span.annotate(status=status)
        self._request_span.__exit__(None, None, None)
        self.tracer.finish()

    @property
    def queue_wait_s(self) -> float:
        return (self._queue_span.duration_s
                if self._queue_span is not None else 0.0)

    @property
    def request_s(self) -> float:
        return self._request_span.duration_s
