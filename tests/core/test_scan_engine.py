"""Bulk-span scan engine: all-width kernels, superchunk decode, parallel scans.

Three layers under test:

1. the all-width blocked pack/unpack kernels in ``bitpack_fast`` must be
   bit-identical to the scalar reference kernels (``init_scalar`` /
   ``get_scalar`` / ``unpack_chunk_scalar``) for every width 1..64,
   including widths whose elements straddle word boundaries and arrays
   with partial trailing chunks;
2. the superchunk decode path (``SmartArray.decode_chunks`` and the
   span iterator behind ``map_api``) must preserve chunk-aligned
   semantics and observability;
3. pooled whole-array scans — ``parallel_sum_bulk`` and one-column
   queries run with ``pool=`` — must return results identical to the
   serial operators in both ``threads`` and ``serial`` pool modes,
   reading every worker's socket-local replica.
"""

import threading


import numpy as np
import pytest

from repro.adapt import Configuration
from repro.core import (SmartArray, allocate, bitpack, bitpack_fast,
                        default_allocator, scan_ops)
from repro.core.map_api import SUPERCHUNK_ELEMENTS, iter_spans, sum_range
from repro.core.table import SmartTable
from repro.live import LiveMigrator
from repro.numa import NumaAllocator, machine_2x8_haswell
from repro.query import Query, in_range
from repro.runtime import WorkerPool, parallel_sum_bulk

#: Widths that exercise every kernel regime: minimum, spill-heavy primes,
#: divisor widths, the 32/64 specializations, and the widest spill (63).
INTERESTING_BITS = (1, 2, 3, 5, 7, 8, 13, 16, 31, 32, 33, 50, 63, 64)

#: Lengths covering empty, sub-chunk, exact chunks, and partial tails.
INTERESTING_LENGTHS = (0, 1, 63, 64, 65, 127, 128, 192, 333)


def random_values(n, bits, seed=0):
    rng = np.random.default_rng(seed + 64 * bits + n)
    if bits == 64:
        return rng.integers(0, 1 << 63, size=n, dtype=np.uint64) * 2 + (
            rng.integers(0, 2, size=n, dtype=np.uint64)
        )
    return rng.integers(0, 1 << bits, size=n, dtype=np.uint64)


def pack_scalar_reference(values, bits):
    """Build the packed buffer one element at a time (reference)."""
    words = np.zeros(bitpack.words_for(len(values), bits), dtype=np.uint64)
    for i, v in enumerate(values):
        bitpack.init_scalar([words], i, int(v), bits)
    return words


class TestBlockedKernelsAllWidths:
    """Blocked kernels == scalar reference kernels, bit for bit."""

    @pytest.mark.parametrize("bits", range(1, 65))
    def test_pack_matches_scalar_reference(self, bits):
        values = random_values(150, bits)
        expected = pack_scalar_reference(values, bits)
        np.testing.assert_array_equal(
            bitpack_fast.pack_words_blocked(values, bits), expected
        )

    @pytest.mark.parametrize("bits", range(1, 65))
    def test_unpack_matches_scalar_reference(self, bits):
        values = random_values(150, bits)
        words = pack_scalar_reference(values, bits)
        decoded = bitpack_fast.unpack_words_blocked(words, len(values), bits)
        np.testing.assert_array_equal(decoded, values)
        # Element-by-element spot check against get_scalar too.
        for i in (0, 1, 63, 64, 127, 149):
            assert int(decoded[i]) == bitpack.get_scalar(words, i, bits)

    @pytest.mark.parametrize("bits", INTERESTING_BITS)
    @pytest.mark.parametrize("length", INTERESTING_LENGTHS)
    def test_roundtrip_every_shape(self, bits, length):
        values = random_values(length, bits)
        words = bitpack_fast.pack_words_blocked(values, bits)
        expected = pack_scalar_reference(values, bits)
        np.testing.assert_array_equal(words, expected)
        np.testing.assert_array_equal(
            bitpack.pack_array(values, bits), expected
        )
        np.testing.assert_array_equal(
            bitpack_fast.unpack_words_blocked(words, length, bits), values
        )

    @pytest.mark.parametrize("bits", (3, 5, 7, 33, 63))
    def test_chunk_range_matches_chunk_scalar(self, bits):
        values = random_values(4 * 64, bits)
        words = bitpack.pack_array(values, bits)
        for chunk in range(4):
            np.testing.assert_array_equal(
                bitpack_fast.unpack_chunk_range(words, chunk, 1, bits),
                bitpack.unpack_chunk_scalar(words, chunk, bits),
            )
        np.testing.assert_array_equal(
            bitpack_fast.unpack_chunk_range(words, 1, 3, bits),
            values[64:],
        )

    def test_chunk_range_reuses_out_buffer(self):
        values = random_values(128, 7)
        words = bitpack.pack_array(values, 7)
        out = np.empty(128, dtype=np.uint64)
        result = bitpack_fast.unpack_chunk_range(words, 0, 2, 7, out=out)
        assert np.shares_memory(result, out)
        np.testing.assert_array_equal(out, values)

    def test_empty_array(self):
        for bits in (1, 7, 33, 64):
            empty = np.empty(0, dtype=np.uint64)
            words = bitpack_fast.pack_words_blocked(empty, bits)
            assert words.size == 0
            assert bitpack_fast.unpack_words_blocked(words, 0, bits).size == 0

    def test_pack_rejects_overflow(self):
        with pytest.raises(OverflowError):
            bitpack_fast.pack_words_blocked(
                np.array([8], dtype=np.uint64), 3
            )

    def test_unpack_array_dispatches_to_blocked(self):
        """``bitpack.unpack_array`` uses the blocked kernel at any width."""
        for bits in (3, 13, 33):
            values = random_values(333, bits)
            words = bitpack.pack_array(values, bits)
            np.testing.assert_array_equal(
                bitpack.unpack_array(words, 333, bits), values
            )


@pytest.fixture
def allocator():
    return NumaAllocator(machine_2x8_haswell())


class TestSuperchunkDecode:
    def test_iter_spans_superchunk_granularity(self, allocator):
        n = 2 * SUPERCHUNK_ELEMENTS + 100
        sa = allocate(n, bits=13, values=random_values(n, 13),
                      allocator=allocator)
        spans = [(start, len(span)) for start, span in iter_spans(sa)]
        assert spans == [
            (0, SUPERCHUNK_ELEMENTS),
            (SUPERCHUNK_ELEMENTS, SUPERCHUNK_ELEMENTS),
            (2 * SUPERCHUNK_ELEMENTS, 100),
        ]

    def test_one_kernel_call_per_superchunk(self, allocator):
        n = 3 * SUPERCHUNK_ELEMENTS
        sa = allocate(n, bits=9, values=random_values(n, 9),
                      allocator=allocator)
        sa.stats.reset()
        sum_range(sa, 0, n)
        assert sa.stats.superchunk_decodes == 3
        assert sa.stats.chunk_unpacks == n // 64

    def test_scan_ops_agree_with_numpy(self, allocator):
        values = random_values(10_000, 13)
        sa = allocate(values.size, bits=13, values=values,
                      allocator=allocator)
        lo, hi = 1000, 6000
        mask = (values >= lo) & (values < hi)
        assert scan_ops.count_in_range(sa, lo, hi) == int(mask.sum())
        np.testing.assert_array_equal(
            scan_ops.select_in_range(sa, lo, hi), np.nonzero(mask)[0]
        )
        assert scan_ops.min_max(sa) == (int(values.min()), int(values.max()))


def column_query(array, lo=None, hi=None):
    """A one-column query over ``array``, filtered to ``[lo, hi)``."""
    q = Query(SmartTable({"v": array}))
    return q if lo is None else q.where(in_range("v", lo, hi))


class TestParallelScans:
    """Pooled scans == serial operators, on every pool mode."""

    N = 20_000
    BITS = 13

    @pytest.fixture
    def machine(self):
        return machine_2x8_haswell()

    @pytest.fixture
    def values(self):
        return random_values(self.N, self.BITS, seed=42)

    @pytest.fixture
    def array(self, machine, values):
        return allocate(self.N, bits=self.BITS, values=values,
                        replicated=True, allocator=NumaAllocator(machine))

    @pytest.fixture(params=["threads", "serial"])
    def pool(self, machine, request):
        return WorkerPool(machine, n_workers=4, mode=request.param)

    def test_sum_matches_serial(self, array, values, pool):
        expected = int(values.astype(object).sum())
        assert parallel_sum_bulk(array, pool=pool, batch=4096) == expected
        assert sum_range(array, 0, self.N) == expected

    def test_count_in_range_matches_serial(self, array, values, pool):
        lo, hi = 500, 7000
        expected = int(((values >= lo) & (values < hi)).sum())
        assert scan_ops.count_in_range(array, lo, hi) == expected
        got = column_query(array, lo, hi).count().run(pool=pool,
                                                      morsel=4096)
        assert got.scalar() == expected

    def test_select_in_range_matches_serial(self, array, values, pool):
        lo, hi = 500, 7000
        expected = np.flatnonzero((values >= lo) & (values < hi))
        np.testing.assert_array_equal(
            scan_ops.select_in_range(array, lo, hi), expected)
        got = column_query(array, lo, hi).select().run(pool=pool,
                                                       morsel=4096)
        np.testing.assert_array_equal(got.rows, expected)

    def test_min_max_matches_serial(self, array, values, pool):
        expected = (int(values.min()), int(values.max()))
        assert scan_ops.min_max(array) == expected
        got = column_query(array).min("v").max("v").run(pool=pool,
                                                        morsel=4096)
        assert tuple(got.aggregates.values()) == expected

    def test_two_array_sum(self, machine, pool):
        alloc = NumaAllocator(machine)
        n = 5000
        a1 = allocate(n, bits=20, values=np.arange(n), allocator=alloc)
        a2 = allocate(n, bits=20, values=np.arange(n)[::-1].copy(),
                      allocator=alloc)
        assert parallel_sum_bulk([a1, a2], pool=pool, batch=1024) == (
            (n - 1) * n)

    def test_empty_and_degenerate_ranges(self, array, pool):
        assert column_query(array, 5, 5).count().run(pool=pool).scalar() == 0
        assert column_query(array, 9, 3).select().run(pool=pool).rows.size == 0

    def test_every_socket_replica_used(self, machine, array, values):
        """Each worker sums from its own socket's replica.

        Four threads on both sockets and exactly four batches; a barrier
        holds each worker inside its first batch until all four have
        claimed one, so under dynamic claiming every worker sums exactly
        one batch and both replicas serve reads.
        """
        pool = WorkerPool(machine, n_workers=4, mode="threads")
        assert {ctx.socket for ctx in pool.contexts} == {0, 1}
        chunks = bitpack.chunks_for(self.N)
        batch = -(-chunks // pool.n_workers) * 64
        assert -(-self.N // batch) == pool.n_workers
        barrier = threading.Barrier(pool.n_workers, timeout=10)
        real_decode = array.decode_chunks

        def decode_at_barrier(*args, **kwargs):
            barrier.wait()
            return real_decode(*args, **kwargs)

        array.decode_chunks = decode_at_barrier
        array.reset_replica_reads()
        assert parallel_sum_bulk(array, pool=pool, batch=batch) == int(
            values.astype(object).sum())
        reads = array.replica_read_elements
        assert len(reads) == 2
        assert all(r > 0 for r in reads), reads
        # Every element decoded exactly once across the two replicas.
        assert sum(reads) == chunks * 64

    def test_threads_mode_reads_only_replicas(self, machine, array):
        """In threads mode total replica reads still cover the array."""
        pool = WorkerPool(machine, n_workers=4, mode="threads")
        array.reset_replica_reads()
        column_query(array, 500, 7000).count().run(pool=pool, morsel=4096)
        assert sum(array.replica_read_elements) == -(-self.N // 64) * 64

    def test_bad_batch_rejected(self, array, pool):
        with pytest.raises(ValueError, match="multiple of 64"):
            parallel_sum_bulk(array, pool=pool, batch=100)


class TestScanUnderMigration:
    """A live migration that swaps a column while a scan is reading it.

    The scan operators run on the morsel executor, which pins each
    morsel's generation before it reads a replica, so the swap cannot
    hand a decode a buffer the array no longer owns."""

    def test_filter_range_while_the_column_is_rewidened(self, monkeypatch):
        n = 50_000
        ts = np.sort(np.random.default_rng(5).integers(
            0, 1 << 20, n, dtype=np.uint64))
        table = SmartTable.from_arrays({"ts": ts})
        column = table["ts"]
        assert column.bits == 20
        lo, hi = int(ts[n // 4]), int(ts[3 * n // 4])
        migrations = []

        def migrate():
            if not migrations:
                migrations.append(None)
                migrations[0] = LiveMigrator(default_allocator()).migrate(
                    column, Configuration(column.placement, 32))

        real_replica = SmartArray.get_replica
        real_reads = {name: getattr(SmartArray, name)
                      for name in ("decode_chunks", "read_chunks")}

        def get_replica(self, *args, **kwargs):
            # The replica is chosen, then the column is swapped.
            replica = real_replica(self, *args, **kwargs)
            if self is column:
                migrate()
            return replica

        def reading(real):
            # The column is swapped just before its first decode.
            def read(self, *args, **kwargs):
                if self is column:
                    migrate()
                return real(self, *args, **kwargs)
            return read

        monkeypatch.setattr(SmartArray, "get_replica", get_replica)
        for name, real in real_reads.items():
            monkeypatch.setattr(SmartArray, name, reading(real))
        rows = table.filter_range("ts", lo, hi)
        np.testing.assert_array_equal(
            rows, np.flatnonzero((ts >= lo) & (ts < hi)))
        assert migrations[0].state == "completed" and column.bits == 32
