"""Tests for the Callisto-RTS-style runtime: pools, loops, reductions."""

import threading

import numpy as np
import pytest

from repro.adapt import Configuration
from repro.core import SmartArray, allocate
from repro.core.bitpack import exact_sum
from repro.live import LiveMigrator
from repro.numa import NumaAllocator, machine_2x18_haswell, machine_2x8_haswell
from repro.runtime import (
    AtomicCounter,
    LoopStats,
    ThreadContext,
    WorkerPool,
    build_contexts,
    parallel_for,
    parallel_reduce,
    parallel_sum,
    parallel_sum_bulk,
)


@pytest.fixture
def machine():
    return machine_2x8_haswell()


@pytest.fixture
def pool(machine):
    return WorkerPool(machine, n_workers=4, mode="threads")


@pytest.fixture
def serial_pool(machine):
    return WorkerPool(machine, n_workers=4, mode="serial")


@pytest.fixture
def allocator(machine):
    return NumaAllocator(machine)


class TestAtomics:
    def test_fetch_add_returns_previous(self):
        c = AtomicCounter(10)
        assert c.fetch_add(5) == 10
        assert c.load() == 15

    def test_store(self):
        c = AtomicCounter()
        c.store(42)
        assert c.load() == 42

    def test_concurrent_fetch_add_loses_nothing(self):
        c = AtomicCounter()
        claimed = []
        lock = threading.Lock()

        def worker():
            for _ in range(1000):
                v = c.fetch_add(1)
                with lock:
                    claimed.append(v)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(claimed) == list(range(8000))


class TestContexts:
    def test_all_hardware_threads_by_default(self, machine):
        ctxs = build_contexts(machine)
        assert len(ctxs) == 32
        assert sum(1 for c in ctxs if c.socket == 0) == 16

    def test_partial_pool_round_robins_sockets(self, machine):
        ctxs = build_contexts(machine, 4)
        assert [c.socket for c in ctxs] == [0, 1, 0, 1]

    def test_thread_ids_unique(self, machine):
        ctxs = build_contexts(machine, 10)
        ids = [c.thread_id for c in ctxs]
        assert len(set(ids)) == 10

    def test_bounds(self, machine):
        with pytest.raises(ValueError):
            build_contexts(machine, 0)
        with pytest.raises(ValueError):
            build_contexts(machine, 33)

    def test_pool_workers_on_socket(self, machine):
        pool = WorkerPool(machine, n_workers=6)
        assert pool.workers_on_socket(0) == 3
        assert pool.workers_on_socket(1) == 3

    def test_bad_mode(self, machine):
        with pytest.raises(ValueError):
            WorkerPool(machine, mode="fibers")


class TestParallelFor:
    def test_covers_every_iteration_exactly_once(self, pool):
        n = 10_000
        seen = np.zeros(n, dtype=np.int64)
        lock = threading.Lock()

        def body(start, end, ctx):
            with lock:
                seen[start:end] += 1

        parallel_for(n, body, pool, batch=97)
        assert (seen == 1).all()

    def test_batch_boundaries_respect_n(self, serial_pool):
        spans = []

        def body(start, end, ctx):
            spans.append((start, end))

        parallel_for(100, body, serial_pool, batch=33)
        assert spans == [(0, 33), (33, 66), (66, 99), (99, 100)]

    def test_zero_iterations(self, pool):
        parallel_for(0, lambda s, e, c: 1 / 0, pool)

    def test_invalid_args(self, pool):
        with pytest.raises(ValueError):
            parallel_for(-1, lambda s, e, c: None, pool)
        with pytest.raises(ValueError):
            parallel_for(10, lambda s, e, c: None, pool, batch=0)

    def test_body_receives_context(self, serial_pool):
        sockets = set()

        def body(start, end, ctx):
            assert isinstance(ctx, ThreadContext)
            sockets.add(ctx.socket)

        parallel_for(1000, body, serial_pool, batch=10)
        # serial round-robin visits one worker at a time but all batches
        # claimed by worker 0 first in serial mode; socket seen is 0
        assert sockets == {0}

    def test_worker_exception_propagates(self, pool):
        def body(start, end, ctx):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            parallel_for(100, body, pool)

    def test_stats_count_batches(self, pool):
        stats = LoopStats()
        parallel_for(1000, lambda s, e, c: None, pool, batch=100, stats=stats)
        assert stats.total_batches == 10
        assert len(stats.batches_per_worker) == pool.n_workers

    def test_dynamic_distribution_under_imbalance(self, pool):
        # A worker stuck on a slow batch must not stall the others:
        # with dynamic batching the fast workers claim the rest.
        import time

        stats = LoopStats()

        def body(start, end, ctx):
            if start == 0:
                time.sleep(0.05)

        parallel_for(40, body, pool, batch=1, stats=stats)
        assert stats.total_batches == 40
        # the sleeper cannot have claimed most batches
        assert max(stats.batches_per_worker) < 40


class TestParallelReduce:
    def test_sum_reduction(self, pool):
        total = parallel_reduce(
            1000, lambda s, e, c: sum(range(s, e)), lambda a, b: a + b, 0,
            pool, batch=64,
        )
        assert total == sum(range(1000))

    def test_non_commutative_safe_combine(self, pool):
        # Combine into a set: order independent, checks all batches arrive.
        result = parallel_reduce(
            100,
            lambda s, e, c: {(s, e)},
            lambda a, b: a | b,
            set(),
            pool,
            batch=30,
        )
        assert sorted(result) == [(0, 30), (30, 60), (60, 90), (90, 100)]


class TestParallelSum:
    @pytest.mark.parametrize("bits", [33, 64])
    def test_matches_numpy(self, bits, pool, allocator):
        n = 5000
        rng = np.random.default_rng(1)
        values = rng.integers(0, 2**bits, size=n, dtype=np.uint64)
        sa = allocate(n, bits=bits, values=values, allocator=allocator)
        expected = int(values.astype(object).sum())
        assert parallel_sum(sa, pool, batch=700) == expected

    def test_two_arrays_like_the_paper(self, pool, allocator):
        # sum += a1[i] + a2[i] (section 5.1)
        n = 3000
        a1 = allocate(n, bits=20, values=np.arange(n), allocator=allocator)
        a2 = allocate(n, bits=20, values=np.arange(n)[::-1].copy(),
                      allocator=allocator)
        assert parallel_sum([a1, a2], pool, batch=500) == (n - 1) * n

    def test_replicated_array_summed_from_local_replicas(self, pool, allocator):
        n = 2000
        sa = allocate(n, bits=16, replicated=True,
                      values=np.arange(n) % 65536, allocator=allocator)
        assert parallel_sum(sa, pool) == sum(range(n))

    def test_length_mismatch(self, pool, allocator):
        a = allocate(10, bits=8, allocator=allocator)
        b = allocate(11, bits=8, allocator=allocator)
        with pytest.raises(ValueError):
            parallel_sum([a, b], pool)

    def test_empty_list_rejected(self, pool):
        with pytest.raises(ValueError):
            parallel_sum([], pool)

    def test_default_pool_used_when_none(self, allocator):
        sa = allocate(100, bits=8, values=np.arange(100) % 256,
                      allocator=allocator)
        assert parallel_sum(sa) == sum(range(100))


class TestParallelSumBulk:
    @pytest.mark.parametrize("bits", [10, 33, 64])
    def test_bulk_equals_scalar_path(self, bits, pool, allocator):
        n = 20_000
        rng = np.random.default_rng(bits)
        values = rng.integers(0, 2**bits, size=n, dtype=np.uint64)
        sa = allocate(n, bits=bits, values=values, allocator=allocator)
        assert parallel_sum_bulk(sa, pool) == int(values.astype(object).sum())

    def test_bulk_large_values_exact(self, pool, allocator):
        # Values near 2**64: numpy's uint64 sum would wrap.
        n = 1000
        values = np.full(n, (1 << 64) - 1, dtype=np.uint64)
        sa = allocate(n, bits=64, values=values, allocator=allocator)
        assert parallel_sum_bulk(sa, pool) == n * ((1 << 64) - 1)

    def test_bulk_two_arrays(self, pool, allocator):
        n = 10_000
        a1 = allocate(n, bits=14, values=np.arange(n) % 16384, allocator=allocator)
        a2 = allocate(n, bits=14, values=np.arange(n) % 16384, allocator=allocator)
        expected = 2 * int((np.arange(n) % 16384).sum())
        assert parallel_sum_bulk([a1, a2], pool) == expected

    def test_migration_between_replica_choice_and_decode(self, monkeypatch,
                                                         allocator):
        """A live migration swaps the array after a batch has chosen its
        socket's replica but before it decodes.  The batch pinned that
        replica's generation, so it decodes the buffer at the buffer's
        own width instead of raising ``ReplicaError``."""
        n = 20_000
        values = np.random.default_rng(3).integers(0, 1 << 13, n,
                                                   dtype=np.uint64)
        sa = allocate(n, bits=13, values=values, replicated=True,
                      allocator=allocator)
        target = Configuration(sa.placement, 24)
        real_decode = SmartArray.decode_chunks
        migrations = []

        def decode_after_swap(self, *args, **kwargs):
            if not migrations:
                migrations.append(
                    LiveMigrator(allocator).migrate(self, target))
            return real_decode(self, *args, **kwargs)

        monkeypatch.setattr(SmartArray, "decode_chunks", decode_after_swap)
        total = parallel_sum_bulk(sa, WorkerPool(allocator.machine,
                                                 n_workers=2, mode="serial"),
                                  batch=4096)
        assert total == int(values.astype(object).sum())
        assert migrations[0].state == "completed" and sa.bits == 24


class TestExactSum:
    def test_exact_sum_wraps_correctly(self):
        values = np.full(3, (1 << 64) - 1, dtype=np.uint64)
        assert exact_sum(values) == 3 * ((1 << 64) - 1)
        assert exact_sum(np.array([], dtype=np.uint64)) == 0

    def test_exact_sum_large_array_splits(self):
        values = np.full(1 << 20, 7, dtype=np.uint64)
        assert exact_sum(values) == 7 * (1 << 20)
