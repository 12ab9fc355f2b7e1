"""Trace sinks: where a tracer's records go.

Two built-ins cover the subsystem's consumers:

:class:`InMemorySink`
    Keeps the records in a list -- the test and programmatic-API sink,
    and what the benchmark harness reads traversal statistics from.
:class:`JSONLSink`
    One append-only JSON-lines file per traced entry, the
    :class:`~repro.runner.store.RunStore`'s sibling: a sweep with
    ``--trace DIR`` writes ``DIR/<entry>-<fingerprint12>.jsonl``
    (:meth:`JSONLSink.for_entry`), so trace files are keyed by the same
    content fingerprint as the result cache and shard artifacts merge
    by simply pooling directories.

Reading is as defensive as the RunStore, through the same
:class:`~repro.utils.journal.Journal`: :func:`read_trace_records` skips
corrupt or truncated lines (a killed sweep may leave a partial trailing
line) with a :class:`TraceReadWarning` instead of failing, so
``tools/trace_report.py`` always renders what survived.
"""

from __future__ import annotations

import json
import os
import re
from typing import Dict, List, Optional, Tuple

from repro.utils.journal import Journal

#: Length of the fingerprint prefix in per-entry trace file names --
#: enough to never collide within a sweep while keeping names readable.
FINGERPRINT_PREFIX = 12

_UNSAFE = re.compile(r"[^A-Za-z0-9._@-]+")


class TraceReadWarning(UserWarning):
    """A trace file contained lines that could not be decoded."""


class InMemorySink:
    """Collect records in order; the sink for tests and in-process use."""

    def __init__(self) -> None:
        self.records: List[Dict[str, object]] = []
        self.closed = False

    def emit(self, record: Dict[str, object]) -> None:
        self.records.append(dict(record))

    def close(self) -> None:
        self.closed = True

    # Convenience views -------------------------------------------------
    def spans(self) -> List[Dict[str, object]]:
        return [r for r in self.records if r.get("type") == "span"]

    def events(self) -> List[Dict[str, object]]:
        return [r for r in self.records if r.get("type") == "event"]


def safe_filename(name: str) -> str:
    """A filesystem-safe form of an entry name (``family@scale`` kept)."""
    return _UNSAFE.sub("_", name) or "entry"


class JSONLSink:
    """Append-only JSON-lines trace file (one record per line).

    Records are written with sorted keys and flushed per line, so a
    killed run leaves at worst one truncated trailing line -- exactly
    the damage :func:`read_trace_records` tolerates.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._handle = open(path, "a", encoding="utf-8")

    @classmethod
    def for_entry(cls, directory: str, name: str,
                  fingerprint: Optional[str] = None) -> "JSONLSink":
        """The per-entry trace file of a sweep: name + fingerprint key."""
        stem = safe_filename(name)
        if fingerprint:
            stem = f"{stem}-{fingerprint[:FINGERPRINT_PREFIX]}"
        return cls(os.path.join(directory, f"{stem}.jsonl"))

    def emit(self, record: Dict[str, object]) -> None:
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        self._handle.close()


def read_trace_records(path: str) -> Tuple[List[Dict[str, object]], int]:
    """Read one trace file; returns ``(records, skipped_lines)``.

    Undecodable lines -- the partial trailing write of a killed sweep,
    or plain corruption -- are counted and skipped with a
    :class:`TraceReadWarning`, mirroring the RunStore's salvage
    semantics: observability must never make a sweep's artifacts
    unreadable.  A trace file has one writer that is done with it, so
    the read takes no lock and creates no file (artifact directories
    are often read-only).
    """
    records: List[Dict[str, object]] = []

    def keep(record: object) -> None:
        if not isinstance(record, dict):
            raise ValueError("trace record is not an object")
        records.append(record)

    journal = Journal(path, "trace line", TraceReadWarning)
    journal.replay(keep)
    return records, journal.skipped_lines
