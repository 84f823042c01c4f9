"""Tests for the serving metrics primitives."""

import pytest

from repro.obs.metrics import (
    Counter,
    Histogram,
    LabelledCounter,
    MetricsRegistry,
    merge_outcomes,
    render_snapshot,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("requests")
        assert counter.value == 0
        counter.inc()
        counter.inc(41)
        assert counter.value == 42

    def test_rejects_negative_increments(self):
        with pytest.raises(ValueError):
            Counter("requests").inc(-1)


class TestLabelledCounter:
    def test_per_label_counts(self):
        family = LabelledCounter("extracted")
        family.inc("example.com")
        family.inc("example.com")
        family.inc("nts.ch")
        assert family.values == {"example.com": 2, "nts.ch": 1}

    def test_top_orders_by_count_then_name(self):
        family = LabelledCounter("extracted")
        family.inc("b.net", 3)
        family.inc("a.net", 3)
        family.inc("c.net", 9)
        assert family.top(2) == [("c.net", 9), ("a.net", 3)]

    def test_rejects_negative_increments(self):
        with pytest.raises(ValueError):
            LabelledCounter("extracted").inc("x", -2)


class TestHistogram:
    def test_mean_and_count(self):
        hist = Histogram("latency", bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.mean == pytest.approx(5.0 / 3.0)
        assert hist.minimum == 0.5
        assert hist.maximum == 3.0

    def test_percentile_interpolates_within_bucket(self):
        hist = Histogram("latency", bounds=(1.0, 2.0))
        for _ in range(100):
            hist.observe(1.5)        # all in the (1.0, 2.0] bucket
        # The p50 estimate must land inside that bucket.
        assert 1.0 <= hist.percentile(0.50) <= 2.0
        assert 1.0 <= hist.percentile(0.99) <= 2.0

    def test_percentile_orders_across_buckets(self):
        hist = Histogram("latency", bounds=(1.0, 2.0, 4.0, 8.0))
        for _ in range(90):
            hist.observe(0.5)
        for _ in range(10):
            hist.observe(6.0)
        assert hist.percentile(0.50) <= 1.0
        assert hist.percentile(0.99) > 4.0

    def test_overflow_reports_observed_maximum(self):
        hist = Histogram("latency", bounds=(1.0,))
        hist.observe(50.0)
        assert hist.overflow == 1
        assert hist.percentile(0.99) == 50.0

    def test_empty_percentile_is_zero(self):
        assert Histogram("latency").percentile(0.5) == 0.0

    def test_rejects_bad_fractions_and_bounds(self):
        with pytest.raises(ValueError):
            Histogram("latency").percentile(0.0)
        with pytest.raises(ValueError):
            Histogram("latency").percentile(1.5)
        with pytest.raises(ValueError):
            Histogram("bad", bounds=(2.0, 1.0))


class TestRegistry:
    def test_instruments_keep_identity(self):
        registry = MetricsRegistry()
        assert registry.counter("requests") is registry.counter("requests")
        assert registry.histogram("lat") is registry.histogram("lat")
        assert registry.labelled("by") is registry.labelled("by")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc(3)
        registry.labelled("extracted").inc("example.com")
        registry.histogram("latency_seconds").observe(0.001)
        snap = registry.snapshot()
        assert snap["counters"] == {"requests": 3}
        assert snap["labelled"] == {"extracted": {"example.com": 1}}
        hist = snap["histograms"]["latency_seconds"]
        assert hist["count"] == 1
        assert set(hist["percentiles"]) == {"p50", "p90", "p99"}

    def test_reset_zeroes_but_keeps_instruments(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests")
        counter.inc(5)
        registry.labelled("extracted").inc("x.net")
        registry.histogram("latency_seconds").observe(1.0)
        registry.reset()
        assert counter.value == 0
        assert registry.counter("requests") is counter
        assert registry.labelled("extracted").values == {}
        assert registry.histogram("latency_seconds").count == 0

    def test_render_round_trips_through_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc(7)
        registry.labelled("extracted").inc("example.com", 4)
        registry.histogram("latency_seconds").observe(0.002)
        text = registry.render()
        assert text == render_snapshot(registry.snapshot())
        assert "requests" in text
        assert "example.com" in text
        assert "latency_seconds" in text

    def test_render_snapshot_handles_empty_histogram(self):
        registry = MetricsRegistry()
        registry.histogram("latency_seconds")
        assert "(no samples)" in registry.render()


class TestMergeOutcomes:
    def test_aggregates_bulk_chunk(self):
        registry = MetricsRegistry()
        merge_outcomes(registry, requests=10, annotated=7)
        merge_outcomes(registry, requests=5, annotated=5)
        assert registry.counter("requests").value == 15
        assert registry.counter("annotated").value == 12
        assert registry.counter("misses").value == 3


class TestMergeSnapshot:
    def _observed(self, values, bounds=(1.0, 2.0, 4.0)):
        registry = MetricsRegistry()
        hist = registry.histogram("latency_seconds", bounds)
        for value in values:
            hist.observe(value)
        return registry

    def test_counters_and_labels_add(self):
        left = MetricsRegistry()
        left.counter("requests").inc(10)
        left.labelled("extracted").inc("a.net", 3)
        right = MetricsRegistry()
        right.counter("requests").inc(5)
        right.counter("misses").inc(2)
        right.labelled("extracted").inc("a.net", 1)
        right.labelled("extracted").inc("b.net", 4)
        left.merge_snapshot(right.snapshot())
        assert left.counter("requests").value == 15
        assert left.counter("misses").value == 2
        assert left.labelled("extracted").values == {"a.net": 4,
                                                     "b.net": 4}

    def test_histogram_buckets_add_bucket_by_bucket(self):
        left = self._observed([0.5, 1.5])
        right = self._observed([1.0, 3.0, 2.5])
        left.merge_snapshot(right.snapshot())
        hist = left.histogram("latency_seconds", (1.0, 2.0, 4.0))
        # 0.5 and the *tie* 1.0 in bucket 0 (upper-inclusive edges),
        # 1.5 in bucket 1, 2.5 and 3.0 in bucket 2.
        assert hist.buckets == [2, 1, 2]
        assert hist.count == 5
        assert hist.total == pytest.approx(8.5)
        assert hist.minimum == 0.5
        assert hist.maximum == 3.0

    def test_bucket_edge_sample_stays_in_its_bucket(self):
        # A worker observed exactly bounds[1]; after the merge it must
        # still be in bucket 1, not pushed into bucket 2.
        left = self._observed([])
        right = self._observed([2.0])
        assert right.histogram("latency_seconds",
                               (1.0, 2.0, 4.0)).buckets == [0, 1, 0]
        left.merge_snapshot(right.snapshot())
        assert left.histogram("latency_seconds",
                              (1.0, 2.0, 4.0)).buckets == [0, 1, 0]

    def test_overflow_bin_aligns(self):
        left = self._observed([9.0])
        right = self._observed([7.0, 100.0])
        left.merge_snapshot(right.snapshot())
        hist = left.histogram("latency_seconds", (1.0, 2.0, 4.0))
        assert hist.overflow == 3
        assert hist.count == 3
        assert hist.maximum == 100.0
        # Percentiles past the last bound report the observed maximum.
        assert hist.percentile(0.99) == 100.0

    def test_merge_into_empty_registry_recreates_instruments(self):
        source = self._observed([0.5, 3.0])
        source.counter("requests").inc(2)
        target = MetricsRegistry()
        target.merge_snapshot(source.snapshot())
        assert target.snapshot() == source.snapshot()

    def test_merge_is_additive_over_repeats(self):
        source = self._observed([1.5])
        target = MetricsRegistry()
        target.merge_snapshot(source.snapshot())
        target.merge_snapshot(source.snapshot())
        hist = target.histogram("latency_seconds", (1.0, 2.0, 4.0))
        assert hist.count == 2
        assert hist.buckets == [0, 2, 0]

    def test_mismatched_bounds_raise(self):
        left = self._observed([0.5], bounds=(1.0, 2.0))
        right = self._observed([0.5], bounds=(1.0, 2.0, 4.0))
        with pytest.raises(ValueError):
            left.merge_snapshot(right.snapshot())

    def test_ignores_non_instrument_keys(self):
        registry = MetricsRegistry()
        registry.merge_snapshot({"counters": {"requests": 1},
                                 "memo": {"size": 3},
                                 "fused_plans": 7,
                                 "suffixes_indexed": 24})
        assert registry.counter("requests").value == 1
        assert "memo" not in registry.snapshot()

    def test_percentiles_survive_merge(self):
        shards = [self._observed([0.2 * i]) for i in range(1, 11)]
        merged = MetricsRegistry()
        for shard in shards:
            merged.merge_snapshot(shard.snapshot())
        direct = self._observed([0.2 * i for i in range(1, 11)])
        hist = merged.histogram("latency_seconds", (1.0, 2.0, 4.0))
        expected = direct.histogram("latency_seconds", (1.0, 2.0, 4.0))
        assert hist.buckets == expected.buckets
        for fraction in (0.5, 0.9, 0.99):
            assert hist.percentile(fraction) == \
                pytest.approx(expected.percentile(fraction))
