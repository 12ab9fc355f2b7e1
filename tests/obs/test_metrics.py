"""Counters, gauges, histograms and the per-tracer metrics registry."""

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
)


class TestInstruments:
    def test_counter_accumulates_and_rejects_decrease(self):
        counter = Counter("images")
        counter.add()
        counter.add(41)
        assert counter.value == 42
        with pytest.raises(ValueError):
            counter.add(-1)
        assert counter.snapshot() == {"kind": "counter", "value": 42}

    def test_gauge_last_write_wins(self):
        gauge = Gauge("live-nodes")
        assert gauge.snapshot() == {"kind": "gauge", "value": None}
        gauge.set(10)
        gauge.set(7)
        assert gauge.snapshot() == {"kind": "gauge", "value": 7}

    def test_histogram_summarises_the_stream(self):
        histogram = Histogram("frontier")
        assert histogram.mean is None
        for value in (4, 2, 6):
            histogram.observe(value)
        assert histogram.snapshot() == {
            "kind": "histogram", "count": 3, "sum": 12,
            "min": 2, "max": 6, "mean": 4.0}


class TestRegistry:
    def test_register_available_get(self):
        registry = MetricsRegistry()
        metric = registry.register("images", Counter("images"))
        assert registry.available() == ["images"]
        assert registry.get("images") is metric

    def test_duplicate_requires_replace(self):
        registry = MetricsRegistry()
        registry.register("images", Counter("images"))
        with pytest.raises(ValueError, match="duplicate metric"):
            registry.register("images", Counter("images"))
        replacement = registry.register("images", Counter("images"),
                                        replace=True)
        assert registry.get("images") is replacement

    def test_unregister_is_idempotent(self):
        registry = MetricsRegistry()
        registry.register("images", Counter("images"))
        registry.unregister("images")
        registry.unregister("images")
        assert registry.available() == []

    def test_unknown_name_suggests(self):
        registry = MetricsRegistry()
        registry.register("images", Counter("images"))
        with pytest.raises(MetricError) as error:
            registry.get("image")
        assert "images" in str(error.value)

    def test_get_or_create_accessors(self):
        registry = MetricsRegistry()
        registry.counter("entries").add(2)
        registry.counter("entries").add(3)
        assert registry.get("entries").value == 5
        registry.gauge("depth").set(4)
        registry.histogram("frontier").observe(9)
        assert registry.available() == ["entries", "depth", "frontier"]

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("entries")
        with pytest.raises(MetricError) as error:
            registry.gauge("entries")
        assert "counter" in str(error.value)

    def test_snapshot_is_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.counter("zebra").add(1)
        registry.gauge("alpha").set(2)
        assert list(registry.snapshot()) == ["alpha", "zebra"]

    def test_registries_are_independent(self):
        # Per-tracer instances: no module-level bleed between entries.
        first, second = MetricsRegistry(), MetricsRegistry()
        first.counter("entries").add(1)
        assert second.available() == []
