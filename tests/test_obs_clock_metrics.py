"""The observability primitives: injectable clocks and the metrics
registry (counters, gauges, histograms, and per-campaign scopes)."""

import threading
import time

import pytest

from repro.obs import metrics
from repro.obs.clock import MonotonicClock, TickClock
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    MetricsRegistry,
    get_registry,
)


# ----------------------------------------------------------------------
# clocks
# ----------------------------------------------------------------------
class TestClocks:
    def test_monotonic_clock_never_goes_backwards(self):
        clock = MonotonicClock()
        readings = [clock.now() for _ in range(5)]
        assert readings == sorted(readings)

    def test_tick_clock_is_frozen_by_default(self):
        clock = TickClock(start=7.0)
        assert [clock.now() for _ in range(3)] == [7.0, 7.0, 7.0]

    def test_tick_clock_steps_when_asked(self):
        clock = TickClock(start=0.0, step=0.5)
        assert [clock.now() for _ in range(3)] == [0.0, 0.5, 1.0]

    def test_tick_clock_advance(self):
        clock = TickClock(start=1.0)
        clock.advance(2.5)
        assert clock.now() == 3.5


# ----------------------------------------------------------------------
# instruments
# ----------------------------------------------------------------------
class TestInstruments:
    def test_counter_accumulates_and_rejects_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("test.hits")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_counter_is_shared_by_name(self):
        registry = MetricsRegistry()
        registry.counter("test.shared").inc()
        registry.counter("test.shared").inc()
        assert registry.counter("test.shared").value == 2

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("test.depth")
        gauge.set(10)
        gauge.set(4)
        assert gauge.value == 4.0

    def test_histogram_buckets_and_overflow(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("test.lat", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 99.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(100.05)
        assert histogram.bucket_counts() == [1, 2, 1]

    def test_histogram_default_buckets_sorted(self):
        assert tuple(sorted(DEFAULT_BUCKETS)) == DEFAULT_BUCKETS
        registry = MetricsRegistry()
        assert registry.histogram("test.default").buckets == DEFAULT_BUCKETS

    def test_histogram_rejects_duplicate_buckets(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("test.dupes", buckets=(1.0, 1.0))

    def test_histogram_empty_buckets_fall_back_to_defaults(self):
        registry = MetricsRegistry()
        assert registry.histogram("test.empty", buckets=()).buckets == (
            DEFAULT_BUCKETS
        )

    def test_name_owns_its_instrument_type(self):
        registry = MetricsRegistry()
        registry.counter("test.kind")
        with pytest.raises(TypeError):
            registry.gauge("test.kind")

    def test_snapshot_is_flat_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b.count").inc(2)
        registry.gauge("a.depth").set(1)
        registry.histogram("c.lat", buckets=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert list(snap) == sorted(snap)
        assert snap["b.count"] == 2.0
        assert snap["c.lat.count"] == 1.0
        assert snap["c.lat.sum"] == 0.5

    def test_default_registry_is_a_singleton(self):
        assert get_registry() is get_registry()

    def test_one_instrument_per_name_under_contention(self, monkeypatch):
        # the service's I/O thread and its verifying thread share one
        # registry.  Slow constructors hold four racing creators in the
        # window between the lookup and the publish: the name still ends
        # with one instrument, and the first kind to land owns it
        def slow(kind):
            class Slow(kind):
                def __init__(self, *args):
                    time.sleep(0.02)
                    super().__init__(*args)
            return Slow

        monkeypatch.setattr(metrics, "Counter", slow(metrics.Counter))
        monkeypatch.setattr(metrics, "Gauge", slow(metrics.Gauge))
        registry = MetricsRegistry()
        start = threading.Barrier(4)
        got, refused = [], []

        def race(kind):
            start.wait(5)
            try:
                got.append(getattr(registry, kind)("test.race"))
            except TypeError:
                refused.append(kind)

        threads = [
            threading.Thread(target=race, args=(kind,))
            for kind in ("counter", "gauge", "counter", "gauge")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(5)
        assert len(got) == 2 and got[0] is got[1]
        loser = "gauge" if isinstance(got[0], Counter) else "counter"
        assert refused == [loser, loser]


# ----------------------------------------------------------------------
# scopes
# ----------------------------------------------------------------------
class TestScopes:
    def test_scope_captures_only_while_active(self):
        registry = MetricsRegistry()
        scope = registry.scope()
        registry.counter("test.n").inc()  # before activation: not seen
        with registry.activate(scope):
            registry.counter("test.n").inc(2)
        registry.counter("test.n").inc()  # after: not seen
        assert scope.value("test.n") == 2
        assert registry.counter("test.n").value == 4

    def test_scope_mirrors_histograms_as_count_and_sum(self):
        registry = MetricsRegistry()
        scope = registry.scope()
        with registry.activate(scope):
            registry.histogram("test.lat", buckets=(1.0,)).observe(0.25)
            registry.histogram("test.lat").observe(0.75)
        assert scope.value("test.lat.count") == 2
        assert scope.value("test.lat.sum") == pytest.approx(1.0)

    def test_scope_is_per_thread(self):
        """A scope activated on one thread must not see another
        thread's increments — the isolation that keeps interleaved
        campaigns from polluting each other's stats."""
        registry = MetricsRegistry()
        mine = registry.scope()
        theirs = registry.scope()

        def other_campaign():
            with registry.activate(theirs):
                registry.counter("test.n").inc(10)

        with registry.activate(mine):
            worker = threading.Thread(target=other_campaign)
            worker.start()
            worker.join()
            registry.counter("test.n").inc()
        assert mine.value("test.n") == 1
        assert theirs.value("test.n") == 10
        assert registry.counter("test.n").value == 11

    def test_scope_snapshot_sorted(self):
        registry = MetricsRegistry()
        scope = registry.scope()
        with registry.activate(scope):
            registry.counter("z.last").inc()
            registry.counter("a.first").inc()
        assert list(scope.snapshot()) == ["a.first", "z.last"]
