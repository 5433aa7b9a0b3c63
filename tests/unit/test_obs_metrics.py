"""Metrics: counters, gauges, log2 histogram bucket edges, and merging."""

import math

import pytest

from repro.obs.metrics import (
    BUCKET_COUNT,
    MAX_EXP,
    MIN_EXP,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bucket_index,
    bucket_lower_edge,
    merge_snapshots,
)

pytestmark = pytest.mark.obs


class TestBucketEdges:
    def test_powers_of_two_land_on_their_lower_edge(self):
        # Half-open buckets [2^e, 2^(e+1)): 2^e starts bucket e - MIN_EXP.
        for exponent in range(MIN_EXP, MAX_EXP):
            index = bucket_index(2.0**exponent)
            assert index == exponent - MIN_EXP
            assert bucket_lower_edge(index) == 2.0**exponent

    def test_just_below_an_edge_stays_in_the_previous_bucket(self):
        assert bucket_index(math.nextafter(8.0, 0.0)) == bucket_index(4.0)
        assert bucket_index(8.0) == bucket_index(4.0) + 1

    def test_integer_and_float_agree(self):
        for value in (1, 2, 3, 7, 8, 1023, 1024, 2**53):
            assert bucket_index(value) == bucket_index(float(value))

    def test_huge_ints_are_exact_beyond_float_precision(self):
        # bit_length keeps arbitrary-size ints exact; 2^63 is the last
        # regular bucket, anything ≥ 2^64 overflows into it too.
        assert bucket_index(2**63) == BUCKET_COUNT - 1
        assert bucket_index(2**63 - 1) == BUCKET_COUNT - 2
        assert bucket_index(2**100) == BUCKET_COUNT - 1

    def test_zero_negative_and_underflow_go_to_bucket_zero(self):
        assert bucket_index(0) == 0
        assert bucket_index(-5.0) == 0
        assert bucket_index(2.0 ** (MIN_EXP - 3)) == 0

    def test_lower_edge_bounds(self):
        with pytest.raises(IndexError):
            bucket_lower_edge(-1)
        with pytest.raises(IndexError):
            bucket_lower_edge(BUCKET_COUNT)


class TestInstruments:
    def test_counter_accumulates_and_rejects_negative(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_tracks_extrema(self):
        gauge = Gauge()
        assert gauge.to_dict() == {
            "type": "gauge", "value": 0.0, "min": None, "max": None, "updates": 0,
        }
        for value in (3.0, -1.0, 7.0, 2.0):
            gauge.set(value)
        dumped = gauge.to_dict()
        assert dumped["value"] == 2.0
        assert dumped["min"] == -1.0
        assert dumped["max"] == 7.0
        assert dumped["updates"] == 4

    def test_histogram_counts_sum_and_extrema(self):
        histogram = Histogram()
        for value in (1.0, 1.5, 4.0, 0.0):
            histogram.record(value)
        assert histogram.count == 4
        assert histogram.sum == 6.5
        assert histogram.min == 0.0
        assert histogram.max == 4.0
        assert histogram.mean() == pytest.approx(1.625)
        dumped = histogram.to_dict()
        # 1.0 and 1.5 share the [1, 2) bucket; 0.0 is in bucket 0.
        assert dumped["buckets"][str(bucket_index(1.0))] == 2
        assert dumped["buckets"][str(bucket_index(4.0))] == 1
        assert dumped["buckets"]["0"] == 1

    def test_histogram_merge_is_elementwise(self):
        a, b, both = Histogram(), Histogram(), Histogram()
        for value in (0.5, 2.0, 1024.0):
            a.record(value)
            both.record(value)
        for value in (2.0, 3.0):
            b.record(value)
            both.record(value)
        a.merge(b)
        assert a.buckets == both.buckets
        assert a.count == both.count
        assert a.sum == both.sum
        assert (a.min, a.max) == (both.min, both.max)

    def test_empty_histogram_mean_is_nan(self):
        assert math.isnan(Histogram().mean())


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.names() == ["a"]
        assert len(registry) == 1

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_snapshot_schema_and_sorting(self):
        registry = MetricsRegistry()
        registry.counter("b.events").inc(2)
        registry.gauge("a.depth").set(3)
        snapshot = registry.snapshot()
        assert snapshot["schema"] == "repro.obs.metrics/v1"
        assert list(snapshot["instruments"]) == ["a.depth", "b.events"]
        assert snapshot["instruments"]["b.events"]["value"] == 2

    def test_write_json_round_trips(self, tmp_path):
        import json

        registry = MetricsRegistry()
        registry.histogram("h").record(2.0)
        path = registry.write_json(tmp_path / "metrics.json")
        assert json.loads(path.read_text()) == registry.snapshot()


class TestMergeSnapshots:
    def test_counters_add(self):
        registry_a, registry_b = MetricsRegistry(), MetricsRegistry()
        registry_a.counter("events").inc(3)
        registry_b.counter("events").inc(4)
        merged = merge_snapshots([registry_a.snapshot(), registry_b.snapshot()])
        assert merged["instruments"]["events"]["value"] == 7

    def test_disjoint_names_union(self):
        registry_a, registry_b = MetricsRegistry(), MetricsRegistry()
        registry_a.counter("only.a").inc()
        registry_b.counter("only.b").inc()
        merged = merge_snapshots([registry_a.snapshot(), registry_b.snapshot()])
        assert set(merged["instruments"]) == {"only.a", "only.b"}

    def test_gauges_keep_global_extrema(self):
        registry_a, registry_b = MetricsRegistry(), MetricsRegistry()
        registry_a.gauge("depth").set(5)
        registry_a.gauge("depth").set(1)
        registry_b.gauge("depth").set(-2)
        merged = merge_snapshots([registry_a.snapshot(), registry_b.snapshot()])
        gauge = merged["instruments"]["depth"]
        assert gauge["min"] == -2.0
        assert gauge["max"] == 5.0
        assert gauge["updates"] == 3

    def test_histograms_merge_matches_single_registry(self):
        shard_a, shard_b, single = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
        for value in (1, 2, 3):
            shard_a.histogram("lat").record(value)
            single.histogram("lat").record(value)
        for value in (3, 4096):
            shard_b.histogram("lat").record(value)
            single.histogram("lat").record(value)
        merged = merge_snapshots([shard_a.snapshot(), shard_b.snapshot()])
        assert merged["instruments"]["lat"] == single.snapshot()["instruments"]["lat"]

    def test_type_conflict_across_snapshots_raises(self):
        registry_a, registry_b = MetricsRegistry(), MetricsRegistry()
        registry_a.counter("x").inc()
        registry_b.gauge("x").set(1)
        with pytest.raises(ValueError):
            merge_snapshots([registry_a.snapshot(), registry_b.snapshot()])

    def test_merge_does_not_mutate_inputs(self):
        registry = MetricsRegistry()
        registry.counter("events").inc(1)
        snapshot = registry.snapshot()
        merge_snapshots([snapshot, snapshot])
        assert snapshot["instruments"]["events"]["value"] == 1
