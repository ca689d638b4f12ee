"""Unit tests for measurement instruments."""

import pytest

from repro.sim import (
    BusyTracker,
    Counter,
    LatencyStats,
    RandomStreams,
    Simulator,
)


class TestBusyTracker:
    def test_utilization_over_window(self):
        sim = Simulator()
        tracker = BusyTracker(sim)

        def proc():
            yield sim.timeout(100.0)
            tracker.reset_window()
            tracker.add(30.0, "copy")
            yield sim.timeout(60.0)

        sim.run_process(proc())
        assert tracker.window_utilization() == pytest.approx(0.5)
        assert tracker.by_category["copy"] == 30.0

    def test_zero_elapsed_is_zero(self):
        sim = Simulator()
        tracker = BusyTracker(sim)
        assert tracker.window_utilization() == 0.0
        assert tracker.utilization() == 0.0

    def test_negative_rejected(self):
        tracker = BusyTracker(Simulator())
        with pytest.raises(ValueError):
            tracker.add(-1.0)

    def test_window_reset_at_nonzero_time_is_zero(self):
        # Regression: a query in the same instant as reset_window() must
        # not divide by the zero-length window.
        sim = Simulator()
        tracker = BusyTracker(sim)

        def proc():
            yield sim.timeout(100.0)
            tracker.add(10.0)
            tracker.reset_window()

        sim.run_process(proc())
        assert tracker.window_utilization() == 0.0

    def test_utilization_capped_at_one(self):
        sim = Simulator()
        tracker = BusyTracker(sim)

        def proc():
            tracker.add(100.0)
            yield sim.timeout(10.0)

        sim.run_process(proc())
        assert tracker.utilization() == 1.0


class TestLatencyStats:
    def test_basic_stats(self):
        stats = LatencyStats()
        for x in (10.0, 20.0, 30.0):
            stats.record(x)
        assert stats.count == 3
        assert stats.mean == 20.0
        assert stats.percentile(0) == 10.0
        assert stats.maximum == 30.0

    def test_percentiles(self):
        stats = LatencyStats()
        for x in range(1, 101):
            stats.record(float(x))
        assert stats.percentile(50) == 50.0
        assert stats.percentile(99) == 99.0
        assert stats.percentile(100) == 100.0
        with pytest.raises(ValueError):
            stats.percentile(101)

    def test_empty_stats_are_zero(self):
        stats = LatencyStats()
        assert stats.mean == 0.0
        assert stats.maximum == 0.0
        assert stats.percentile(50) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyStats().record(-1.0)

    def test_reset(self):
        stats = LatencyStats()
        stats.record(5.0)
        stats.reset()
        assert stats.count == 0

    def test_percentile_cache_invalidated_by_new_samples(self):
        stats = LatencyStats()
        for x in (30.0, 10.0, 20.0):
            stats.record(x)
        assert stats.percentile(100) == 30.0  # builds the sorted cache
        stats.record(40.0)
        assert stats.percentile(100) == 40.0  # cache must refresh
        assert stats.percentile(50) == 20.0

    def test_summary_keys(self):
        stats = LatencyStats()
        for x in range(1, 101):
            stats.record(float(x))
        summary = stats.summary()
        hist = summary.pop("hist")
        assert summary == {"count": 100, "mean": 50.5, "p50": 50.0,
                           "p95": 95.0, "p99": 99.0, "max": 100.0}
        assert sum(hist.values()) == 100

    def test_histogram_bucketing(self):
        stats = LatencyStats()
        stats.record(0.5)            # below the first edge
        stats.record(1.0)            # exactly on an edge: le_1
        stats.record(3.0)            # between 2 and 4: le_4
        stats.record(float(1 << 21))  # beyond the last edge: overflow
        assert stats.histogram() == {"le_1": 2, "le_4": 1, "inf": 1}

    def test_histogram_reset(self):
        stats = LatencyStats()
        stats.record(5.0)
        stats.reset()
        assert stats.histogram() == {}


class TestCounter:
    def test_incr_get_ratio(self):
        counter = Counter()
        counter.incr("hits", 3)
        counter.incr("misses")
        assert counter.get("hits") == 3
        assert counter.get("unknown") == 0
        assert counter.hit_ratio() == 0.75
        assert counter.as_dict() == {"hits": 3, "misses": 1}

    def test_reset(self):
        counter = Counter()
        counter.incr("x")
        counter.reset()
        assert counter.get("x") == 0


class TestRandomStreams:
    def test_streams_are_deterministic(self):
        a = RandomStreams(7).stream("foo")
        b = RandomStreams(7).stream("foo")
        assert [a.random() for _ in range(5)] == \
            [b.random() for _ in range(5)]

    def test_streams_are_independent(self):
        streams = RandomStreams(7)
        foo = streams.stream("foo")
        first = foo.random()
        # Drawing from another stream must not perturb 'foo'.
        streams2 = RandomStreams(7)
        streams2.stream("bar").random()
        assert streams2.stream("foo").random() == first

    def test_different_seeds_differ(self):
        assert RandomStreams(1).stream("s").random() != \
            RandomStreams(2).stream("s").random()

    def test_same_stream_object_returned(self):
        streams = RandomStreams(7)
        assert streams.stream("x") is streams.stream("x")
