"""A stdlib blocking client for the verification daemon.

:class:`ServeClient` speaks the :mod:`repro.serve.protocol` schema over
``http.client`` -- no extra dependencies, usable from tests, the perf
ledger (``tools/bench.py``) and scripts alike::

    from repro.serve import ServeClient

    client = ServeClient(port=8642)
    result = client.check(entry="vme_read")          # terminal event
    result["stable"]                                  # batch-check parity
    for event in client.check_stream(entry="vme_read"):
        ...                                           # live progress

``http.client`` decodes chunked transfer-encoding transparently and the
response object supports line iteration, which is all the JSONL stream
needs.  Every call opens one connection (the daemon answers
``Connection: close``), so a client object is cheap and stateless.
"""

from __future__ import annotations

import json
import time
from http.client import HTTPConnection
from typing import Dict, Iterator, Optional, Sequence

from repro.fabric.policy import RetryPolicy
from repro.serve.protocol import TERMINAL_EVENTS


class ServeClientError(RuntimeError):
    """An HTTP-level or protocol-level failure reported by the daemon."""

    def __init__(self, message: str, status: int = 0,
                 payload: Optional[Dict[str, object]] = None) -> None:
        super().__init__(message)
        self.status = status
        self.payload = payload or {}


class ServeClient:
    """Blocking HTTP client of one ``repro.serve`` daemon."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 timeout: float = 120.0,
                 retry: Optional[RetryPolicy] = None) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        #: Opt-in bounded retry of load-shedding refusals.  When set, a
        #: 503 whose error event carries ``retryable: true`` (queue
        #: full, draining) is resubmitted up to ``retry.max_attempts``
        #: times with the policy's deterministic exponential backoff --
        #: the same :class:`~repro.fabric.policy.RetryPolicy` the lease
        #: coordinator uses, so one spec string tunes both layers.
        #: Genuine failures (4xx, 500, terminal ``error`` events) are
        #: never retried.
        self.retry = retry
        self._server_schema: Optional[int] = None

    # ------------------------------------------------------------------
    # Checking
    # ------------------------------------------------------------------
    def check(self, entry: Optional[str] = None,
              g_text: Optional[str] = None, name: Optional[str] = None,
              config: Optional[Dict[str, object]] = None,
              checks: Optional[Sequence[str]] = None,
              delay: float = 0.0,
              base: Optional[str] = None) -> Dict[str, object]:
        """Run one check and return the terminal ``result`` event.

        Uses the non-streaming protocol (one JSON response).  A terminal
        ``error`` event -- and any HTTP error -- raises
        :class:`ServeClientError`.  ``base`` (schema 2) requests a delta
        warm-start from an earlier task name, corpus entry or
        reachability fingerprint; against a schema-1 daemon it raises
        before anything is sent (see :meth:`server_schema`).
        """
        if base is not None:
            self._require_schema(2, "base")
        body = self._check_body(entry, g_text, name, config, checks,
                                delay, stream=False, base=base)
        response = self._post_check(body)
        payload = self._read_json(response)
        if response.status != 200 or payload.get("type") != "result":
            raise ServeClientError(
                str(payload.get("error", f"HTTP {response.status}")),
                status=response.status, payload=payload)
        return payload

    def check_stream(self, entry: Optional[str] = None,
                     g_text: Optional[str] = None,
                     name: Optional[str] = None,
                     config: Optional[Dict[str, object]] = None,
                     checks: Optional[Sequence[str]] = None,
                     delay: float = 0.0,
                     base: Optional[str] = None
                     ) -> Iterator[Dict[str, object]]:
        """Yield the event stream of one check, ending on the terminal
        event (which is yielded too, never raised: streaming callers see
        the protocol verbatim).  ``base`` as on :meth:`check`."""
        if base is not None:
            self._require_schema(2, "base")
        body = self._check_body(entry, g_text, name, config, checks,
                                delay, stream=True, base=base)
        response = self._post_check(body)
        if response.status != 200:
            payload = self._read_json(response)
            raise ServeClientError(
                str(payload.get("error", f"HTTP {response.status}")),
                status=response.status, payload=payload)
        try:
            for line in response:
                line = line.strip()
                if not line:
                    continue
                event = json.loads(line.decode("utf-8"))
                yield event
                if event.get("type") in TERMINAL_EVENTS:
                    return
        finally:
            response.close()

    @staticmethod
    def _check_body(entry, g_text, name, config, checks, delay,
                    stream, base=None) -> Dict[str, object]:
        body: Dict[str, object] = {"stream": stream}
        if entry is not None:
            body["entry"] = entry
        if g_text is not None:
            body["g_text"] = g_text
        if name is not None:
            body["name"] = name
        if config is not None:
            body["config"] = dict(config)
        if checks is not None:
            body["checks"] = list(checks)
        if delay:
            body["delay"] = delay
        if base is not None:
            body["base"] = base
        return body

    # ------------------------------------------------------------------
    # Schema negotiation
    # ------------------------------------------------------------------
    def server_schema(self) -> int:
        """The daemon's protocol schema version (cached per client).

        One ``GET /healthz`` on first use; a new-client-vs-old-server
        feature mismatch then fails fast on this side of the wire with a
        message naming both versions, instead of an opaque 400 from a
        daemon that never heard of the field.
        """
        if self._server_schema is None:
            self._server_schema = int(self.health().get("schema", 1))
        return self._server_schema

    def _require_schema(self, minimum: int, feature: str) -> None:
        schema = self.server_schema()
        if schema < minimum:
            raise ServeClientError(
                f"{feature!r} needs protocol schema >= {minimum}, but "
                f"the daemon at {self.host}:{self.port} serves schema "
                f"{schema}")

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, object]:
        """The daemon's metrics snapshot (``GET /metrics``)."""
        return self._simple("GET", "/metrics")

    def health(self) -> Dict[str, object]:
        """Liveness and schema info (``GET /healthz``)."""
        return self._simple("GET", "/healthz")

    def shutdown(self) -> Dict[str, object]:
        """Ask the daemon to drain and stop (``POST /shutdown``)."""
        return self._simple("POST", "/shutdown")

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _post_check(self, body: Dict[str, object]):
        """POST the check body, retrying retryable 503s when opted in.

        Without a :attr:`retry` policy this is one plain request -- the
        caller sees the 503 exactly as before.  With one, a refusal
        whose body says ``retryable: true`` sleeps the policy's
        deterministic backoff (jitter-keyed on the entry name, so a
        thundering herd of identical clients still de-synchronises) and
        resubmits; the attempt budget exhausting raises the last
        refusal as a :class:`ServeClientError`.
        """
        key = str(body.get("entry") or body.get("name") or "")
        attempt = 1
        while True:
            response = self._request("POST", "/check", body)
            if response.status != 503 or self.retry is None:
                return response
            payload = self._read_json(response)
            if (payload.get("retryable") is not True
                    or attempt >= self.retry.max_attempts):
                raise ServeClientError(
                    str(payload.get("error", "HTTP 503")),
                    status=response.status, payload=payload)
            attempt += 1
            time.sleep(self.retry.delay_for(attempt, key))

    def _simple(self, method: str, path: str) -> Dict[str, object]:
        response = self._request(method, path)
        payload = self._read_json(response)
        if response.status != 200:
            raise ServeClientError(
                str(payload.get("error", f"HTTP {response.status}")),
                status=response.status, payload=payload)
        return payload

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, object]] = None):
        connection = HTTPConnection(self.host, self.port,
                                    timeout=self.timeout)
        encoded = (json.dumps(body).encode("utf-8")
                   if body is not None else None)
        headers = {"Content-Type": "application/json"} if encoded else {}
        try:
            connection.request(method, path, body=encoded, headers=headers)
            return connection.getresponse()
        except OSError as error:
            connection.close()
            raise ServeClientError(
                f"cannot reach daemon at {self.host}:{self.port}: "
                f"{error}") from None

    @staticmethod
    def _read_json(response) -> Dict[str, object]:
        try:
            with response:
                return json.loads(response.read().decode("utf-8"))
        except ValueError as error:
            raise ServeClientError(
                f"daemon sent unparseable JSON: {error}",
                status=response.status) from None
