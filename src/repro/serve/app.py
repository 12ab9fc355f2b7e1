"""The asyncio HTTP daemon: sockets, routing, workers, lifecycle.

``ServeApp`` is a zero-extra-dependency HTTP/1.1 server hand-rolled on
``asyncio.start_server``: requests are small JSON bodies, responses are
either a single JSON object or a chunked ``application/x-ndjson`` event
stream (:mod:`repro.serve.protocol`).  The execution model is a bounded
``asyncio.Queue`` of :class:`~repro.serve.jobs.Job` objects drained by
``--jobs`` worker coroutines, each of which runs its job through
:meth:`~repro.serve.state.WarmState.run_task`: the sweep worker's
primitive on a shared thread pool, awaited through
:func:`~repro.serve.state.execute_payload_async`.

Routes::

    POST /check     verify an entry or raw .g text (stream or single)
    GET  /metrics   daemon metrics snapshot (JSON)
    GET  /healthz   liveness + schema version
    POST /shutdown  graceful drain-and-stop

Graceful shutdown is load-bearing, not cosmetic: the stop sequence
closes the listener, lets every queued job run to completion (handlers
keep streaming), then retires the workers and the executor -- so the
JSONL RunStore never ends up with the torn trailing line an aborted
write leaves behind (the shutdown tests reload the store and assert
``skipped_lines == 0``).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import signal
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Sequence, Tuple

from repro.serve import protocol
from repro.serve.jobs import Job
from repro.serve.state import WarmState

#: HTTP status lines for the replies the daemon actually sends.
_STATUS_LINES = {
    200: "200 OK",
    400: "400 Bad Request",
    404: "404 Not Found",
    405: "405 Method Not Allowed",
    500: "500 Internal Server Error",
    503: "503 Service Unavailable",
}

#: Largest request body accepted (a corpus ``.g`` text is a few KiB;
#: anything near this bound is not a verification request).
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Seconds the drain sequence waits for in-flight handlers.
DRAIN_TIMEOUT_S = 60.0

#: ``Retry-After`` interval advertised on load-shedding 503s (queue
#: full, draining).  Deliberately short: a full queue on a warm daemon
#: drains at verification speed, so "come back in a second" is honest,
#: and clients with a :class:`~repro.fabric.policy.RetryPolicy` apply
#: their own exponential backoff on top anyway.
RETRY_AFTER_SECONDS = 1


class ServeApp:
    """One daemon instance: configuration, warm state and lifecycle."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 jobs: int = 2, queue_size: int = 64,
                 state_dir: Optional[str] = None,
                 trace_dir: Optional[str] = None) -> None:
        self.host = host
        self.port = port
        self.jobs = max(1, jobs)
        self.queue_size = max(1, queue_size)
        if state_dir is None:
            state_dir = tempfile.mkdtemp(prefix="repro-serve-")
        self.state = WarmState(state_dir)
        self.metrics = self.state.metrics
        self.trace_dir = trace_dir
        self._queue: "asyncio.Queue[Optional[Job]]" = \
            asyncio.Queue(maxsize=self.queue_size)
        self._job_ids = itertools.count(1)
        self._draining = False
        self._stop = asyncio.Event()
        self._server: Optional[asyncio.AbstractServer] = None
        self._workers = []
        self._handlers = set()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started_monotonic = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener and start the worker pool."""
        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=self.jobs, thread_name_prefix="repro-serve")
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._workers = [asyncio.create_task(self._worker())
                         for _ in range(self.jobs)]
        self._started_monotonic = time.monotonic()

    async def serve_until_shutdown(self) -> None:
        """Block until a shutdown is requested, then drain and stop."""
        await self._stop.wait()
        await self._drain()

    def request_shutdown(self) -> None:
        """Begin a graceful stop (idempotent; safe from signal handlers)."""
        self._draining = True
        self._stop.set()

    async def _drain(self) -> None:
        """The ordered stop: no new work, finish queued work, retire."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._queue.join()  # every accepted job ran to completion
        if self._handlers:       # let handlers flush their streams
            await asyncio.wait(set(self._handlers),
                               timeout=DRAIN_TIMEOUT_S)
        for _ in self._workers:
            await self._queue.put(None)
        await asyncio.gather(*self._workers, return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True)

    def run(self) -> int:
        """Blocking CLI entry point: serve until SIGINT/SIGTERM."""
        return asyncio.run(self._run_cli())

    async def _run_cli(self) -> int:
        await self.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, self.request_shutdown)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        print(f"repro-serve: listening on http://{self.host}:{self.port} "
              f"(jobs={self.jobs}, queue={self.queue_size}, "
              f"state={self.state.state_dir})", flush=True)
        await self.serve_until_shutdown()
        print("repro-serve: drained and stopped", flush=True)
        return 0

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    async def _worker(self) -> None:
        while True:
            job = await self._queue.get()
            try:
                if job is None:
                    return
                await self._process(job)
            finally:
                self._queue.task_done()

    async def _process(self, job: Job) -> None:
        from repro import obs

        job.picked_up()
        job.events.put_nowait(
            protocol.running_event(job.id, job.task.name))
        try:
            # Activating the job's tracer here is what threads the
            # worker's entry/stage spans back to this request: the
            # execution primitive copies the context onto its executor
            # thread, and obs.tracing() without a trace_dir leaves the
            # outer activation in place.
            with obs.activated(job.tracer):
                result = await self.state.run_task(
                    job.task, executor=self._executor)
        except Exception as error:  # pragma: no cover - defensive
            job.finished("error")
            job.events.put_nowait(protocol.error_event(
                f"{type(error).__name__}: {error}", job_id=job.id))
            return
        job.finished(result.status)
        self.metrics.histogram("serve.request.seconds").observe(
            job.request_s)
        self.metrics.histogram("serve.queue_wait.seconds").observe(
            job.queue_wait_s)
        if not result.cached:
            self.metrics.histogram("serve.entry.seconds").observe(
                result.duration)
        job.events.put_nowait(protocol.result_event(job.id, result))

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        try:
            await self._serve_one(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        finally:
            self._handlers.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _serve_one(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
        parsed = await self._read_request(reader, writer)
        if parsed is None:
            return
        method, path, body = parsed
        if method == "POST" and path == "/check":
            await self._handle_check(writer, body)
        elif method == "GET" and path == "/metrics":
            self._write_json(writer, 200, self.metrics_snapshot())
        elif method == "GET" and path == "/healthz":
            self._write_json(writer, 200, {
                "status": "draining" if self._draining else "ok",
                "schema": protocol.SERVE_SCHEMA_VERSION,
                "queue_depth": self._queue.qsize()})
        elif method == "POST" and path == "/shutdown":
            self._write_json(writer, 200, {"status": "draining"})
            await writer.drain()
            self.request_shutdown()
        else:
            self._write_json(writer, 404, protocol.error_event(
                f"no route for {method} {path}", status=404))
        await writer.drain()

    async def _read_request(self, reader, writer) \
            -> Optional[Tuple[str, str, bytes]]:
        request_line = await reader.readline()
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) < 3:
            self._write_json(writer, 400, protocol.error_event(
                "malformed request line", status=400))
            return None
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            key, _, value = line.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            self._write_json(writer, 400, protocol.error_event(
                "invalid or oversized Content-Length", status=400))
            return None
        body = await reader.readexactly(length) if length else b""
        return method, target.partition("?")[0], body

    async def _handle_check(self, writer: asyncio.StreamWriter,
                            body: bytes) -> None:
        try:
            data = json.loads(body.decode("utf-8")) if body else None
            request = protocol.parse_check_request(data)
            task = self.state.make_task(request)
        except protocol.ProtocolError as error:
            self._write_json(writer, error.status, protocol.error_event(
                str(error), status=error.status))
            return
        except (ValueError, UnicodeDecodeError) as error:
            self._write_json(writer, 400, protocol.error_event(
                f"invalid request body: {error}", status=400))
            return
        if self._draining:
            self._write_json(writer, 503, protocol.error_event(
                "daemon is draining", status=503, retryable=True),
                extra_headers=(f"Retry-After: {RETRY_AFTER_SECONDS}",))
            return
        job = Job(next(self._job_ids), task,
                  asyncio.get_running_loop(),
                  extra_sinks=self._trace_sinks(task))
        self.metrics.counter("serve.requests").add(1)
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            job.finished("error")
            self.metrics.counter("serve.rejected").add(1)
            self._write_json(writer, 503, protocol.error_event(
                f"job queue full ({self.queue_size})", status=503,
                retryable=True),
                extra_headers=(f"Retry-After: {RETRY_AFTER_SECONDS}",))
            return
        job.enqueued()
        self.metrics.gauge("serve.queue.depth").set(self._queue.qsize())
        queued = protocol.queued_event(job.id, task.name, task.fingerprint,
                                       self._queue.qsize(),
                                       base=task.config.base_fingerprint)
        if request.stream:
            await self._stream_events(writer, job, queued)
        else:
            await self._collect_result(writer, job)

    def _trace_sinks(self, task):
        if not self.trace_dir:
            return ()
        from repro.obs import JSONLSink

        return (JSONLSink.for_entry(self.trace_dir, task.name,
                                    task.fingerprint),)

    async def _stream_events(self, writer: asyncio.StreamWriter,
                             job: Job, queued: Dict[str, object]) -> None:
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: application/x-ndjson\r\n"
                     b"Transfer-Encoding: chunked\r\n"
                     b"Connection: close\r\n\r\n")
        self._write_chunk(writer, protocol.encode_event(queued))
        await writer.drain()
        while True:
            event = await job.events.get()
            self._write_chunk(writer, protocol.encode_event(event))
            await writer.drain()
            if event.get("type") in protocol.TERMINAL_EVENTS:
                break
        writer.write(b"0\r\n\r\n")

    async def _collect_result(self, writer: asyncio.StreamWriter,
                              job: Job) -> None:
        while True:
            event = await job.events.get()
            if event.get("type") in protocol.TERMINAL_EVENTS:
                break
        status = 200 if event["type"] == "result" else \
            int(event.get("status") or 500)
        self._write_json(writer, status, event)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> Dict[str, object]:
        self.state.observe_stores()
        self.metrics.gauge("serve.queue.depth").set(self._queue.qsize())
        self.metrics.gauge("serve.uptime.seconds").set(
            round(time.monotonic() - self._started_monotonic, 3))
        return {"schema": protocol.SERVE_SCHEMA_VERSION,
                "metrics": self.metrics.snapshot()}

    # ------------------------------------------------------------------
    # Wire helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _write_chunk(writer: asyncio.StreamWriter, payload: bytes) -> None:
        writer.write(f"{len(payload):x}\r\n".encode("ascii"))
        writer.write(payload)
        writer.write(b"\r\n")

    @staticmethod
    def _write_json(writer: asyncio.StreamWriter, status: int,
                    payload: Dict[str, object],
                    extra_headers: Sequence[str] = ()) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        headers = "".join(f"{header}\r\n" for header in extra_headers)
        writer.write((f"HTTP/1.1 {_STATUS_LINES[status]}\r\n"
                      f"Content-Type: application/json\r\n"
                      f"Content-Length: {len(body)}\r\n"
                      f"{headers}"
                      f"Connection: close\r\n\r\n").encode("ascii"))
        writer.write(body)


def serve_main(argv) -> int:
    """Entry point of ``stg-check serve`` / ``python -m repro serve``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="stg-check serve",
        description="Run the always-warm verification daemon.")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (default: 0 = pick a free port)")
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker coroutines / executor threads")
    parser.add_argument("--queue-size", type=int, default=64,
                        help="bounded job-queue capacity (full = 503)")
    parser.add_argument("--state-dir", default=None,
                        help="directory of the warm stores (default: a "
                             "fresh temporary directory)")
    parser.add_argument("--trace", metavar="DIR", default=None,
                        help="also write per-job repro.obs JSONL traces "
                             "into DIR")
    arguments = parser.parse_args(argv)
    if arguments.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {arguments.jobs}")
    if arguments.queue_size < 1:
        parser.error(f"--queue-size must be >= 1, "
                     f"got {arguments.queue_size}")
    state_dir = arguments.state_dir
    if state_dir is not None:
        os.makedirs(state_dir, exist_ok=True)
    app = ServeApp(host=arguments.host, port=arguments.port,
                   jobs=arguments.jobs, queue_size=arguments.queue_size,
                   state_dir=state_dir, trace_dir=arguments.trace)
    return app.run()
