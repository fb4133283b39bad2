"""Tests for the metrics registry: the observability layer's ground
truth for every software counter in the reproduction."""

import threading

import pytest

from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metric_key,
    registry,
    split_key,
)


class TestMetricKey:
    def test_no_labels_is_bare_name(self):
        assert metric_key("core.chunk_unpacks", {}) == "core.chunk_unpacks"

    def test_labels_sorted(self):
        key = metric_key("m", {"b": "2", "a": "1"})
        assert key == "m{a=1,b=2}"
        assert key == metric_key("m", {"a": "1", "b": "2"})

    def test_split_round_trips(self):
        for name, labels in [
            ("core.scalar_gets", {}),
            ("core.replica_read_elements", {"array": "a3", "replica": "1"}),
            ("query.decoded_chunks", {"column": "ts"}),
        ]:
            assert split_key(metric_key(name, labels)) == (name, labels)


class TestCounter:
    def test_monotonic(self):
        c = Counter("n", {})
        c.add()
        c.add(5)
        assert c.value == 6
        with pytest.raises(ValueError):
            c.add(-1)
        assert c.value == 6

    def test_store_and_reset(self):
        c = Counter("n", {})
        c.store(42)
        assert c.value == 42
        c.reset()
        assert c.value == 0

    def test_shared_lock_group_update(self):
        lock = threading.Lock()
        a = Counter("a", {}, lock=lock)
        b = Counter("b", {}, lock=lock)
        with lock:
            a.add_under_lock(3)
            b.add_under_lock(4)
        assert (a.value, b.value) == (3, 4)


class TestGauge:
    def test_moves_both_ways(self):
        g = Gauge("g", {})
        g.set(5.0)
        g.add(-2.0)
        assert g.value == 3.0
        g.reset()
        assert g.value == 0.0


class TestHistogram:
    def test_bucketing_is_cumulative(self):
        h = Histogram("h", {}, buckets=[1.0, 10.0])
        for v in (0.5, 0.7, 5.0, 100.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(106.2)
        assert h.bucket_counts() == [
            (1.0, 2), (10.0, 3), (float("inf"), 4),
        ]

    def test_default_buckets_sorted(self):
        h = Histogram("h", {})
        assert h.buckets == tuple(sorted(DEFAULT_BUCKETS))

    def test_empty_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", {}, buckets=[])


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        c1 = reg.counter("core.chunk_unpacks", array="a0")
        c2 = reg.counter("core.chunk_unpacks", array="a0")
        assert c1 is c2
        # Different labels -> different counter.
        assert reg.counter("core.chunk_unpacks", array="a1") is not c1

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(TypeError):
            reg.gauge("m")
        with pytest.raises(TypeError):
            reg.histogram("m")

    def test_labels_coerced_to_str(self):
        reg = MetricsRegistry()
        c = reg.counter("m", socket=1)
        assert c.labels == {"socket": "1"}
        assert reg.counter("m", socket="1") is c

    def test_snapshot_delta_and_value(self):
        reg = MetricsRegistry()
        reg.counter("a").add(2)
        before = reg.snapshot()
        reg.counter("a").add(3)
        reg.counter("b", array="x").add(7)  # created mid-window
        delta = reg.delta(before)
        assert delta == {"a": 3, "b{array=x}": 7}
        assert reg.value("a") == 5
        assert reg.value("b", array="x") == 7
        assert reg.value("missing", default=-1) == -1

    def test_delta_omits_zero_entries(self):
        reg = MetricsRegistry()
        reg.counter("a").add(1)
        before = reg.snapshot()
        assert reg.delta(before) == {}

    def test_values_filters_by_prefix_and_labels(self):
        reg = MetricsRegistry()
        reg.counter("core.x", array="a0").add(1)
        reg.counter("core.y", array="a1").add(2)
        reg.counter("query.z").add(3)
        assert reg.values("core.") == {
            "core.x{array=a0}": 1, "core.y{array=a1}": 2,
        }
        assert reg.values("core.", array="a1") == {"core.y{array=a1}": 2}

    def test_histogram_snapshot_keys(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=[1.0]).observe(0.5)
        snap = reg.snapshot()
        assert snap["h__count"] == 1
        assert snap["h__sum"] == 0.5

    def test_reset_zeroes_but_keeps_metrics(self):
        reg = MetricsRegistry()
        reg.counter("a").add(5)
        reg.gauge("g").set(2.0)
        reg.reset()
        assert len(reg) == 2
        assert reg.value("a") == 0
        assert reg.value("g") == 0.0

    def test_drop_and_clear(self):
        reg = MetricsRegistry()
        reg.counter("a", array="a0")
        reg.counter("b")
        reg.drop(["a{array=a0}", "not-there"])
        assert len(reg) == 1
        reg.clear()
        assert len(reg) == 0

    def test_equal_raw_labels_that_render_apart_stay_apart(self):
        # ``True == 1`` as dict keys, but they are different labels.
        reg = MetricsRegistry()
        one = reg.counter("m", flag=1)
        true = reg.counter("m", flag=True)
        assert one is not true
        assert (one.labels, true.labels) == ({"flag": "1"}, {"flag": "True"})
        assert reg.counter("m", flag=1) is one
        assert reg.counter("m", flag=True) is true

    def test_dropped_series_is_not_served_again(self):
        reg = MetricsRegistry()
        old = reg.counter("m", array="a0")
        kept = reg.counter("k", array="a0")
        assert reg.counter("m", array="a0") is old  # repeat lookup
        reg.drop(["m{array=a0}"])
        fresh = reg.counter("m", array="a0")
        assert fresh is not old
        assert reg.counter("m", array="a0") is fresh
        assert reg.counter("k", array="a0") is kept
        reg.clear()
        assert reg.counter("k", array="a0") is not kept

    def test_deferred_drop_applies_at_the_next_locked_operation(self):
        reg = MetricsRegistry()
        old = reg.counter("m", array="a0")
        with reg._lock:
            reg.drop(["m{array=a0}"])  # lock busy: queued
        # As before the lookup dict: the queued series is still served
        # until a locked operation applies the drop.
        assert reg.counter("m", array="a0") is old
        reg.counter("other")  # a miss takes the lock
        assert reg.counter("m", array="a0") is not old

    def test_default_registry_is_shared(self):
        assert registry() is registry()

    def test_concurrent_adds_lose_nothing(self):
        reg = MetricsRegistry()
        c = reg.counter("hot")
        n_threads, per_thread = 8, 5_000

        def worker():
            for _ in range(per_thread):
                c.add(1)

        threads = [threading.Thread(target=worker)
                   for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == n_threads * per_thread

    def test_concurrent_get_or_create_single_object(self):
        reg = MetricsRegistry()
        got = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            got.append(reg.counter("raced", array="a9"))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(map(id, got))) == 1
