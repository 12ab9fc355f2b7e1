"""Hierarchical spans and the per-run tracer.

The tracing substrate has exactly two states:

**Disabled** (the default): :func:`span` returns the shared
:data:`NULL_SPAN` singleton and :func:`event` returns immediately --
one ``ContextVar`` read and a ``None`` test, no allocation, no clock
call.  The instrumentation baked into the kernel hot paths
(:mod:`repro.core.traversal`, :mod:`repro.core.pipeline`) therefore
costs nothing measurable when nobody asked for a trace; the tracked
``tracing`` section of ``BENCH.json`` pins that overhead.  The
few sites whose duration also lands in a result use :func:`timed`,
whose disabled path reads the clock and nothing else.

**Enabled**: a :class:`Tracer` is activated for the current context
(:func:`activated`, or the :func:`repro.obs.tracing` front door) and
every :func:`span` call opens a real :class:`Span` -- a node of a tree
carrying wall time, free-form attributes, optional per-span BDD-manager
deltas (operation-cache lookups/hits/evictions and live nodes, diffed
from :meth:`repro.bdd.manager.BDDManager.cache_stats`), and point
events (the per-iteration frontier sizes of the traversal).  Closed
spans and events are emitted as plain dict records to the tracer's
sinks (:mod:`repro.obs.sinks`).

Activation uses a :class:`contextvars.ContextVar`, so the serve
daemon's thread pool can trace concurrent entries without cross-talk;
the activator must always reset the variable (``activated`` does)
because pool threads outlive individual tasks.

Span *names are string literals* by contract -- variable data goes into
attributes (``span("check", check=name)``, never ``span(name)``).  The
RA501 analyzer rule enforces this, which is what keeps the stage
vocabulary of :mod:`repro.obs.report` enumerable.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, List, Mapping, Optional

#: Bump when the trace record schema changes incompatibly; recorded in
#: every trace file's ``meta`` record so readers can reject the future.
TRACE_SCHEMA_VERSION = 1


class NullSpan:
    """The do-nothing span returned while tracing is disabled.

    A single shared instance (:data:`NULL_SPAN`); every method is a
    no-op and the instance is falsy, so call sites can cheaply ask
    ``if span:`` before computing expensive attributes.
    """

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def __bool__(self) -> bool:
        return False

    def annotate(self, **attrs: object) -> None:
        """Discard attributes (the enabled counterpart records them)."""

    def event(self, name: str, **attrs: object) -> None:
        """Discard a point event."""


#: The shared disabled-path span; identity-comparable in tests.
NULL_SPAN = NullSpan()

#: The one clock every duration of a run is read from: traced spans and
#: the untraced :func:`timed` path alike.
CLOCK = time.perf_counter


class ClockSpan(NullSpan):
    """The disabled-path span of :func:`timed`: inert, but timed.

    Like :class:`NullSpan` it is falsy and discards annotations and
    events; unlike it, it reads :data:`CLOCK` on entry and exit, so
    ``duration_s`` is valid after the block even when nobody traces.
    """

    __slots__ = ("duration_s", "_t0")

    def __init__(self) -> None:
        self.duration_s = 0.0
        self._t0 = 0.0

    def __enter__(self) -> "ClockSpan":
        self._t0 = CLOCK()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self.duration_s = CLOCK() - self._t0
        return False


def _manager_snapshot(manager) -> Dict[str, int]:
    stats = manager.cache_stats()
    return {"lookups": stats["lookups"], "hits": stats["hits"],
            "evictions": stats["evictions"],
            "live_nodes": manager.num_nodes}


class Span:
    """One timed node of the trace tree (use as a context manager).

    ``manager`` (a :class:`~repro.bdd.manager.BDDManager`) may be bound
    at creation: the span then snapshots the manager's monotonic
    operation-cache counters on entry and records the deltas plus the
    final live-node count under ``bdd`` on exit.
    """

    __slots__ = ("tracer", "name", "attrs", "span_id", "parent_id",
                 "depth", "start_s", "duration_s", "bdd",
                 "_manager", "_before", "_t0")

    def __init__(self, tracer: "Tracer", name: str, span_id: int,
                 parent_id: Optional[int], depth: int,
                 manager=None, attrs: Optional[Dict[str, object]] = None
                 ) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs: Dict[str, object] = dict(attrs or {})
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.start_s: float = 0.0
        self.duration_s: float = 0.0
        self.bdd: Optional[Dict[str, int]] = None
        self._manager = manager
        self._before: Optional[Dict[str, int]] = None
        self._t0: float = 0.0

    def __bool__(self) -> bool:
        return True

    def annotate(self, **attrs: object) -> None:
        """Attach (or overwrite) attributes on the open span."""
        self.attrs.update(attrs)

    def event(self, name: str, **attrs: object) -> None:
        """Record a point event under this span."""
        self.tracer._emit_event(self, name, attrs)

    def __enter__(self) -> "Span":
        self._t0 = CLOCK()
        self.start_s = self._t0 - self.tracer.start
        if self._manager is not None:
            self._before = _manager_snapshot(self._manager)
        self.tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, traceback) -> bool:
        self.duration_s = CLOCK() - self._t0
        if self._before is not None:
            after = _manager_snapshot(self._manager)
            before = self._before
            self.bdd = {
                "lookups": after["lookups"] - before["lookups"],
                "hits": after["hits"] - before["hits"],
                "evictions": after["evictions"] - before["evictions"],
                "live_nodes": after["live_nodes"],
                "live_nodes_delta":
                    after["live_nodes"] - before["live_nodes"],
            }
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.tracer._pop(self)
        return False

    # ------------------------------------------------------------------
    # The record schema (one JSONL line per closed span)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "depth": self.depth,
            "name": self.name,
            "start_s": round(self.start_s, 6),
            "duration_s": round(self.duration_s, 6),
        }
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        if self.bdd is not None:
            record["bdd"] = dict(self.bdd)
        return record

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Span":
        """Rebuild a closed span from a :meth:`to_dict` record.

        The result is detached (``tracer`` is ``None``) -- it exists for
        report-side consumers that want ``Span`` semantics back.
        """
        span = cls(tracer=None, name=str(data["name"]),
                   span_id=int(data["id"]),
                   parent_id=(None if data.get("parent") is None
                              else int(data["parent"])),
                   depth=int(data.get("depth") or 0),
                   attrs=dict(data.get("attrs") or {}))
        span.start_s = float(data.get("start_s") or 0.0)
        span.duration_s = float(data.get("duration_s") or 0.0)
        bdd = data.get("bdd")
        span.bdd = dict(bdd) if bdd is not None else None
        return span


class Tracer:
    """One trace: a span tree, point events, sinks and metrics.

    ``meta`` identifies what is being traced (entry name, fingerprint,
    execution provenance); it is emitted as the first record.  Spans
    and events stream to every sink as they close / occur;
    :meth:`finish` emits the closing record (with the metrics snapshot)
    and closes the sinks.
    """

    def __init__(self, sinks=(), metrics=None,
                 meta: Optional[Mapping[str, object]] = None) -> None:
        from repro.obs.metrics import MetricsRegistry

        self.start = CLOCK()
        self.sinks = list(sinks)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.meta: Dict[str, object] = dict(meta or {})
        self._stack: List[Span] = []
        self._next_id = 0
        self._finished = False
        self._emit({"type": "meta",
                    "schema": TRACE_SCHEMA_VERSION, **self.meta})

    # ------------------------------------------------------------------
    # Span and event creation
    # ------------------------------------------------------------------
    def span(self, name: str, manager=None, **attrs: object) -> Span:
        """Open a child of the innermost open span (enter to start it)."""
        parent = self._stack[-1] if self._stack else None
        span = Span(self, name, span_id=self._next_id,
                    parent_id=parent.span_id if parent else None,
                    depth=parent.depth + 1 if parent else 0,
                    manager=manager, attrs=attrs)
        self._next_id += 1
        return span

    def event(self, name: str, **attrs: object) -> None:
        """Record a point event under the innermost open span."""
        current = self._stack[-1] if self._stack else None
        self._emit_event(current, name, attrs)

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def finish(self) -> None:
        """Emit the end record (metrics snapshot) and close the sinks."""
        if self._finished:
            return
        self._finished = True
        record: Dict[str, object] = {
            "type": "end",
            "wall_s": round(CLOCK() - self.start, 6),
        }
        snapshot = self.metrics.snapshot()
        if snapshot:
            record["metrics"] = snapshot
        self._emit(record)
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()

    # ------------------------------------------------------------------
    # Internals shared with Span
    # ------------------------------------------------------------------
    def _push(self, span: Span) -> None:
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # defensive: out-of-order exit
            self._stack.remove(span)
        self._emit(span.to_dict())

    def _emit_event(self, span: Optional[Span], name: str,
                    attrs: Mapping[str, object]) -> None:
        record: Dict[str, object] = {
            "type": "event",
            "span": span.span_id if span is not None else None,
            "name": name,
            "at_s": round(CLOCK() - self.start, 6),
        }
        if attrs:
            record["attrs"] = dict(attrs)
        self._emit(record)

    def _emit(self, record: Dict[str, object]) -> None:
        for sink in self.sinks:
            sink.emit(record)


# ----------------------------------------------------------------------
# Context-local activation (the module-level front door)
# ----------------------------------------------------------------------
_ACTIVE: ContextVar[Optional[Tracer]] = ContextVar(
    "repro_obs_tracer", default=None)


def active() -> Optional[Tracer]:
    """The tracer activated for the current context, if any.

    Hot loops fetch this once and guard per-iteration work (frontier
    sizes, extra counter reads) with ``if tracer is not None`` so the
    disabled path stays free.
    """
    return _ACTIVE.get()


def span(name: str, manager=None, **attrs: object):
    """Open a span on the active tracer, or the shared no-op span.

    The name must be a string literal (rule RA501); put variable data
    into keyword attributes.
    """
    tracer = _ACTIVE.get()
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, manager=manager, **attrs)


def timed(name: str, manager=None, **attrs: object):
    """Like :func:`span`, but ``duration_s`` is valid after the block.

    With a tracer active this *is* the traced :class:`Span`, otherwise a
    fresh :class:`ClockSpan` on the same clock.  Use it wherever a
    duration also lands in a result (report phase timings, traversal
    wall time, worker entry durations): the result then carries the
    traced number itself, so results and traces cannot disagree.
    """
    tracer = _ACTIVE.get()
    if tracer is None:
        return ClockSpan()
    return tracer.span(name, manager=manager, **attrs)


def event(name: str, **attrs: object) -> None:
    """Record a point event on the active tracer (no-op when disabled)."""
    tracer = _ACTIVE.get()
    if tracer is not None:
        tracer.event(name, **attrs)


@contextmanager
def activated(tracer: Tracer):
    """Activate ``tracer`` for the dynamic extent of the ``with`` block.

    Always resets the context variable on exit: the serve daemon's
    executor threads are pooled, so a leaked activation would bleed
    into the next task scheduled on the same thread.
    """
    token = _ACTIVE.set(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE.reset(token)
