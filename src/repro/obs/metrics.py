"""Named counters, gauges and histograms with a metrics registry.

:class:`MetricsRegistry` is a :class:`~repro.utils.registry.Registry`
-- ``register`` / ``unregister`` / ``available`` / ``get`` with a
did-you-mean :class:`MetricError`, like the engine registry -- but one
per :class:`~repro.obs.trace.Tracer` rather than module state, so
concurrent entries (the serve daemon's requests in progress) never share
mutable metric state and a trace file's closing snapshot describes
exactly one entry.

The convenience accessors (:meth:`MetricsRegistry.counter` /
``gauge`` / ``histogram``) get-or-create, so instrumentation sites can
say ``tracer.metrics.counter("images").add(1)`` without a registration
ceremony.  Metric names are string literals by the same RA501 contract
as span names.

Like every observability value, metric readings are diagnostics only:
they must never feed fingerprints or ``stable_dict`` views (rule
RA502) -- the sweep gate's byte-parity legs assume traced and untraced
runs produce identical stable output.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.utils.registry import Registry, UnknownNameError

Number = Union[int, float]


class MetricError(UnknownNameError, KeyError):
    """Unknown metric name, or a metric of another kind."""

    kind = "metric"


class Counter:
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def add(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease "
                             f"(got {amount})")
        self.value += amount

    def snapshot(self) -> Dict[str, object]:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """A point-in-time value (last write wins)."""

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Optional[Number] = None

    def set(self, value: Number) -> None:
        self.value = value

    def snapshot(self) -> Dict[str, object]:
        return {"kind": self.kind, "value": self.value}


class Histogram:
    """A stream of observations summarised as count/sum/min/max/mean."""

    kind = "histogram"

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total: Number = 0
        self.minimum: Optional[Number] = None
        self.maximum: Optional[Number] = None

    def observe(self, value: Number) -> None:
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def snapshot(self) -> Dict[str, object]:
        return {"kind": self.kind, "count": self.count,
                "sum": self.total, "min": self.minimum,
                "max": self.maximum, "mean": self.mean}


Metric = Union[Counter, Gauge, Histogram]

_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry(Registry[Metric]):
    """One tracer's named metrics, plus get-or-create accessors."""

    def __init__(self) -> None:
        super().__init__(MetricError)

    # ------------------------------------------------------------------
    # Get-or-create accessors (the instrumentation-site front door)
    # ------------------------------------------------------------------
    def _get_or_create(self, name: str, kind: str) -> Metric:
        metric = self._items.get(name)
        if metric is None:
            metric = self.register(name, _KINDS[kind](name))
        elif metric.kind != kind:
            raise MetricError(
                name, self._items,
                message=f"metric {name!r} is a {metric.kind}, not a {kind}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, "counter")

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, "gauge")

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, "histogram")

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Every metric's summary, keyed by name (sorted for stable
        serialisation)."""
        return {name: self._items[name].snapshot()
                for name in sorted(self._items)}
