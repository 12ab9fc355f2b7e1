"""``repro.obs``: zero-dependency tracing, metrics and profiling.

The observability substrate of the whole stack -- the kernel
(:mod:`repro.bdd`), the core pipeline (:mod:`repro.core`), the sweep
fabric (:mod:`repro.runner`) and the CLI all emit through this package,
and nothing here feeds back into verdicts: trace and metric data never
enter fingerprints or stable JSON views (rules RA501/RA502 plus the
sweep gate's traced-vs-untraced byte-parity leg pin that).

Quickstart::

    from repro import obs

    with obs.tracing(trace_dir="traces", name="vme_read") as tracer:
        with obs.span("traversal", manager=manager) as span:
            ...                      # timed; BDD cache deltas recorded
            obs.event("iteration", frontier=frontier.size())
            span.annotate(iterations=12)
        tracer.metrics.counter("images").add(42)

When no tracer is active (the default), :func:`span` returns a shared
no-op span and :func:`event` returns immediately -- the disabled path
is one context-variable read, benchmarked in the ``tracing`` section
of ``BENCH.json``.

Span and metric *names are string literals*; variable data goes into
attributes (``obs.span("check", check=name)``).  The analyzer's RA501
rule enforces this so the stage vocabulary stays enumerable.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Mapping, Optional

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
)
from repro.obs.sinks import (
    InMemorySink,
    JSONLSink,
    TraceReadWarning,
    read_trace_records,
)
from repro.obs.trace import (
    NULL_SPAN,
    TRACE_SCHEMA_VERSION,
    NullSpan,
    Span,
    Tracer,
    activated,
    active,
    event,
    span,
    timed,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "InMemorySink",
    "JSONLSink",
    "MetricError",
    "MetricsRegistry",
    "NULL_SPAN",
    "NullSpan",
    "Span",
    "TRACE_SCHEMA_VERSION",
    "TraceReadWarning",
    "Tracer",
    "activated",
    "active",
    "event",
    "read_trace_records",
    "span",
    "timed",
    "tracing",
]


@contextmanager
def tracing(trace_dir: Optional[str] = None, name: str = "",
            fingerprint: Optional[str] = None,
            meta: Optional[Mapping[str, object]] = None,
            sink=None):
    """Activate tracing for a block (the worker/CLI front door).

    With ``trace_dir`` the records stream to the per-entry JSONL file
    ``trace_dir/<name>[-<fingerprint12>].jsonl``; with ``sink`` they go
    there instead (in-memory for tests and the benchmark harness).
    With neither, the block runs untraced (``yields None``) and the
    instrumentation inside stays on its no-op path -- callers never
    branch on whether tracing is on.
    """
    if trace_dir is None and sink is None:
        yield None
        return
    sinks = [sink] if sink is not None else [
        JSONLSink.for_entry(trace_dir, name, fingerprint)]
    full_meta = {"entry": name, "fingerprint": fingerprint}
    full_meta.update(meta or {})
    tracer = Tracer(sinks=sinks, meta=full_meta)
    try:
        with activated(tracer):
            yield tracer
    finally:
        tracer.finish()
