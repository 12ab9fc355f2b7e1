"""The wire schema of the verification daemon.

One place defines what travels over a ``repro.serve`` connection: the
shape of a ``POST /check`` request body, the event records a streaming
response emits (one JSON object per line), and the validation errors a
malformed request raises.  The daemon (:mod:`repro.serve.app`) and the
client (:mod:`repro.serve.client`) both import from here, so the two
sides cannot drift.

A check request selects *what to verify* -- a registered corpus entry
(``entry``) or raw ``.g`` text (``g_text``) -- plus the semantic knobs
of the run: an :class:`~repro.api.config.EngineConfig` dict (execution
knobs are stripped server-side; the daemon owns its cache directories)
and an optional check subset.  The response is a stream of events::

    {"type": "queued",  "job": 7, "name": ..., "fingerprint": ..., ...}
    {"type": "running", "job": 7, "name": ...}
    {"type": "stage",   "job": 7, "stage": "traversal", "duration_s": ...}
    {"type": "stage",   "job": 7, "stage": "check", "attrs": {...}, ...}
    {"type": "result",  "job": 7, "status": "ok", "cached": false,
     "entry": {...EntryResult.to_dict()...},
     "stable": {...EntryResult.stable_dict()...}}

``result`` and ``error`` are terminal: exactly one of them ends every
stream.  The ``stable`` view inside ``result`` is byte-identical to what
``batch-check`` emits for the same task content -- the daemon is a
serving face of the sweep fabric, not a second verifier.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.runner.results import EntryResult

#: Bump when the request/event schema changes incompatibly; served in
#: every ``queued`` event and by ``GET /healthz`` so clients can reject
#: a future they do not understand.
#: (2: the optional ``base`` request field -- delta warm-starts for
#:     edited re-checks -- and strict validation of the keys *inside*
#:     the ``config`` dict, which schema 1 silently ignored.)
SERVE_SCHEMA_VERSION = 2

#: Event types that end a job's stream.
TERMINAL_EVENTS = ("result", "error")

#: Top-level keys a ``POST /check`` body may carry.
REQUEST_KEYS = ("entry", "g_text", "name", "config", "checks", "delay",
                "stream", "base")


class ProtocolError(ValueError):
    """A malformed or unserviceable request (maps to an HTTP 4xx)."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class CheckRequest:
    """A validated ``POST /check`` body.

    Exactly one of ``entry`` (a corpus name) and ``g_text`` (raw ``.g``
    source) is set.  ``config`` is the raw client dict -- the warm state
    normalises it through :class:`~repro.api.config.EngineConfig` and
    strips the execution knobs.  ``delay`` rides
    :attr:`~repro.runner.plan.SweepTask.delay` (a testing hook, not
    fingerprint material); ``stream`` selects chunked JSONL streaming
    (the default) versus a single JSON response.

    ``base`` (schema 2) requests a delta warm-start: a corpus entry
    name, the task name of an earlier request on this daemon, or a raw
    reachability fingerprint.  The warm state resolves it with the
    facade's :func:`repro.api.facade.resolve_base`, passing its table of
    earlier task texts.
    """

    entry: Optional[str] = None
    g_text: Optional[str] = None
    name: Optional[str] = None
    config: Optional[Mapping[str, object]] = None
    checks: Optional[Tuple[str, ...]] = None
    delay: float = 0.0
    stream: bool = True
    base: Optional[str] = None


def parse_check_request(data: object) -> CheckRequest:
    """Validate a decoded request body into a :class:`CheckRequest`.

    Unknown keys are rejected (a typo'd ``"check"`` must not silently
    run every check), as are type mismatches; engine/config semantics
    are validated later by :class:`~repro.api.config.EngineConfig`.
    """
    if not isinstance(data, dict):
        raise ProtocolError(
            f"request body must be a JSON object, got "
            f"{type(data).__name__}")
    unknown = sorted(set(data) - set(REQUEST_KEYS))
    if unknown:
        raise ProtocolError(
            f"unknown request key(s) {', '.join(map(repr, unknown))}; "
            f"expected: {', '.join(REQUEST_KEYS)}")
    entry = _optional_str(data, "entry")
    g_text = _optional_str(data, "g_text")
    if (entry is None) == (g_text is None):
        raise ProtocolError(
            "exactly one of 'entry' (a corpus name) and 'g_text' "
            "(raw .g source) is required")
    config = data.get("config")
    if config is not None:
        if not isinstance(config, dict):
            raise ProtocolError("'config' must be a JSON object (an "
                                "EngineConfig dict)")
        _validate_config_keys(config)
    checks = data.get("checks")
    if checks is not None:
        if (not isinstance(checks, (list, tuple))
                or not all(isinstance(check, str) for check in checks)):
            raise ProtocolError("'checks' must be a list of check names")
        checks = tuple(checks)
    delay = data.get("delay", 0.0)
    if not isinstance(delay, (int, float)) or isinstance(delay, bool) \
            or delay < 0:
        raise ProtocolError("'delay' must be a non-negative number")
    stream = data.get("stream", True)
    if not isinstance(stream, bool):
        raise ProtocolError("'stream' must be a boolean")
    return CheckRequest(entry=entry, g_text=g_text,
                        name=_optional_str(data, "name"), config=config,
                        checks=checks, delay=float(delay), stream=stream,
                        base=_optional_str(data, "base"))


def _validate_config_keys(config: Mapping[str, object]) -> None:
    """Reject unknown keys inside the ``config`` dict.

    :meth:`EngineConfig.from_dict` deliberately ignores unknown keys
    (old serialised configs must keep loading), but on the wire that
    tolerance turns a typo'd ``"orderin"`` into a silently different
    run -- so the protocol is strict where the persistence layer is
    lenient.
    """
    from dataclasses import fields

    from repro.api.config import EngineConfig

    known = tuple(spec.name for spec in fields(EngineConfig))
    unknown = sorted(set(config) - set(known))
    if unknown:
        raise ProtocolError(
            f"unknown config key(s) {', '.join(map(repr, unknown))}; "
            f"expected EngineConfig fields: {', '.join(known)}")


def _optional_str(data: Mapping[str, object], key: str) -> Optional[str]:
    value = data.get(key)
    if value is None:
        return None
    if not isinstance(value, str) or not value:
        raise ProtocolError(f"{key!r} must be a non-empty string")
    return value


def anonymous_name(g_text: str) -> str:
    """The cache name of an unnamed raw-``g_text`` request.

    Content-derived, so two clients posting the same text share one
    RunStore key (and therefore one computation).
    """
    digest = hashlib.sha256(g_text.encode("utf-8")).hexdigest()
    return f"g-{digest[:12]}"


# ----------------------------------------------------------------------
# Event records (one JSON line each on a streaming response)
# ----------------------------------------------------------------------
def queued_event(job_id: int, name: str, fingerprint: str,
                 queue_depth: int,
                 base: Optional[str] = None) -> Dict[str, object]:
    event: Dict[str, object] = {
        "type": "queued", "schema": SERVE_SCHEMA_VERSION,
        "job": job_id, "name": name, "fingerprint": fingerprint,
        "queue_depth": queue_depth}
    if base is not None:
        # The resolved base *fingerprint* -- what a client should quote
        # back as "base" to re-use the same entry directly.
        event["base"] = base
    return event


def running_event(job_id: int, name: str) -> Dict[str, object]:
    return {"type": "running", "job": job_id, "name": name}


def stage_event(job_id: int,
                span_record: Mapping[str, object]) -> Dict[str, object]:
    """A progress event built from a closed :mod:`repro.obs` span record.

    The daemon forwards the worker's span stream (``queue_wait``,
    ``entry``, ``parse``, ``traversal``, per-check spans, ...) as it
    closes, which is what makes the response *live* progress rather
    than a post-hoc report.
    """
    event: Dict[str, object] = {
        "type": "stage", "job": job_id,
        "stage": span_record["name"],
        "duration_s": span_record["duration_s"],
    }
    attrs = span_record.get("attrs")
    if attrs:
        event["attrs"] = dict(attrs)
    return event


def result_event(job_id: int, result: EntryResult) -> Dict[str, object]:
    """The terminal success event: the full result plus its stable view.

    ``stable`` is :meth:`~repro.runner.results.EntryResult.stable_dict`
    -- byte-identical to the ``batch-check`` stable JSON for the same
    task content, which the parity tests serialise and compare.
    """
    return {"type": "result", "job": job_id, "name": result.name,
            "status": result.status, "cached": result.cached,
            "duration_s": result.duration,
            "entry": result.to_dict(), "stable": result.stable_dict()}


def error_event(message: str, job_id: Optional[int] = None,
                status: int = 500,
                retryable: Optional[bool] = None) -> Dict[str, object]:
    """The terminal failure event (also the body of plain HTTP errors).

    ``retryable=True`` marks load-shedding refusals (queue full,
    draining): the request was never attempted, so resubmitting it
    after the ``Retry-After`` interval is safe and encouraged --
    :class:`~repro.serve.client.ServeClient` honours the flag with its
    opt-in bounded retry.  The field is present only when set, so
    schema-2 consumers see unchanged events for genuine failures.
    """
    event: Dict[str, object] = {"type": "error", "error": message,
                                "status": status}
    if job_id is not None:
        event["job"] = job_id
    if retryable is not None:
        event["retryable"] = retryable
    return event


def encode_event(event: Mapping[str, object]) -> bytes:
    """One event as one JSONL wire line (sorted keys: stable for tests)."""
    return (json.dumps(event, sort_keys=True) + "\n").encode("utf-8")
