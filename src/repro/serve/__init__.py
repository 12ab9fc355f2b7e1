"""``repro.serve``: the always-warm asyncio verification daemon.

Batch sweeps (:mod:`repro.runner`) pay the full cost of process
startup, corpus expansion and cold caches on every invocation.  This
package keeps all of that *warm* in one long-lived process: an asyncio
HTTP/JSON daemon (``stg-check serve`` / ``python -m repro serve``) that
accepts ``.g`` text or corpus-entry requests, queues them on a bounded
job queue, runs them on a thread pool through the sweep worker's
execution primitive (:func:`repro.serve.state.execute_payload_async`
awaits :func:`repro.runner.worker.execute_payload`), and streams
per-job progress events as JSON lines.

The contracts, in one sentence each:

* **Parity** -- a daemon verdict's ``stable`` view is byte-identical to
  the ``batch-check`` stable JSON for the same task content.
* **Warmth** -- repeat requests are served from the shared
  :class:`~repro.runner.store.RunStore` / :class:`~repro.cache.BDDStore`
  without re-running anything (counters prove it), and N concurrent
  identical requests cost one computation (single-flight).
* **Facade purity** -- serve code verifies only through
  :func:`repro.api.run` (via the worker primitive) and never feeds
  anything into fingerprints or stable views (analyzer rule RA203).
* **Observability** -- every request is a :mod:`repro.obs` span tree
  (``request -> queue_wait -> entry -> stages``) and ``GET /metrics``
  snapshots the daemon-wide registry.
"""

from repro.serve.app import ServeApp, serve_main
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.jobs import Job, StreamSink
from repro.serve.protocol import (
    SERVE_SCHEMA_VERSION,
    TERMINAL_EVENTS,
    CheckRequest,
    ProtocolError,
    parse_check_request,
)
from repro.serve.state import WarmState

__all__ = [
    "CheckRequest",
    "Job",
    "ProtocolError",
    "SERVE_SCHEMA_VERSION",
    "ServeApp",
    "ServeClient",
    "ServeClientError",
    "StreamSink",
    "TERMINAL_EVENTS",
    "WarmState",
    "parse_check_request",
    "serve_main",
]
