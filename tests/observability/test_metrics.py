"""Metrics registry: instruments, snapshots, and the merge/diff algebra."""

import json

import pytest

from repro.observability.metrics import (
    LATENCY_BUCKETS,
    MetricsRegistry,
    default_registry,
    diff_snapshots,
)


class TestInstruments:
    def test_counter_inc(self):
        registry = MetricsRegistry()
        counter = registry.counter("packets_total")
        counter.inc()
        counter.inc(4)
        assert registry.snapshot()["counters"]["packets_total"] == 5

    def test_handles_are_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_labels_key_series_separately(self):
        registry = MetricsRegistry()
        registry.counter("sent_total", transport="rest").inc()
        registry.counter("sent_total", transport="inproc").inc(2)
        counters = registry.snapshot()["counters"]
        assert counters["sent_total{transport=rest}"] == 1
        assert counters["sent_total{transport=inproc}"] == 2

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        a = registry.counter("c", x="1", y="2")
        b = registry.counter("c", y="2", x="1")
        assert a is b

    def test_gauge_set(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(7)
        gauge.set(3)
        assert registry.snapshot()["gauges"]["depth"] == 3

    def test_histogram_buckets_and_quantile(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=[0.001, 0.01, 0.1])
        for value in (0.0005, 0.005, 0.005, 0.05):
            hist.observe(value)
        snap = registry.snapshot()["histograms"]["lat"]
        assert snap["counts"] == [1, 2, 1, 0]
        assert snap["count"] == 4
        assert hist.quantile(0.5) <= 0.01

    def test_histogram_overflow_bucket_not_inf(self):
        """Out-of-range samples land in a finite overflow slot, keeping
        snapshots strict JSON for the REST channel."""
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=[1.0])
        hist.observe(99.0)
        snap = registry.snapshot()["histograms"]["lat"]
        assert snap["counts"] == [0, 1]
        json.dumps(registry.snapshot())  # must not need allow_nan

    def test_default_latency_buckets_observe(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=LATENCY_BUCKETS)
        hist.observe(0.0001)
        assert registry.snapshot()["histograms"]["lat"]["count"] == 1

    def test_reset(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc(9)
        registry.reset()
        assert registry.snapshot()["counters"]["c"] == 0
        counter.inc()  # old handle still wired after reset
        assert registry.snapshot()["counters"]["c"] == 1

    def test_default_registry_is_process_wide(self):
        assert default_registry() is default_registry()


class TestSnapshotAlgebra:
    def _snap(self, registry_setup):
        registry = MetricsRegistry()
        registry_setup(registry)
        return registry.snapshot()

    def test_diff_counters(self):
        before = self._snap(lambda r: r.counter("c").inc(2))
        after = self._snap(lambda r: r.counter("c").inc(7))
        delta = diff_snapshots(before, after)
        assert delta["counters"]["c"] == 5

    def test_diff_drops_unchanged_and_new_keys_diff_against_zero(self):
        before = self._snap(lambda r: r.counter("same").inc(1))
        after = self._snap(
            lambda r: (r.counter("same").inc(1), r.counter("new").inc(3))
        )
        delta = diff_snapshots(before, after)
        assert "same" not in delta["counters"]
        assert delta["counters"]["new"] == 3

    def test_diff_gauges_from_to(self):
        before = self._snap(lambda r: r.gauge("g").set(1))
        after = self._snap(lambda r: r.gauge("g").set(5))
        assert diff_snapshots(before, after)["gauges"]["g"] == {
            "from": 1, "to": 5,
        }


class TestValidation:
    def test_histogram_requires_a_boundary(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("bad", buckets=[])

    def test_histogram_boundaries_sorted_at_registration(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=[0.1, 0.001, 0.01])
        assert hist.boundaries == (0.001, 0.01, 0.1)
