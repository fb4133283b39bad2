"""Bulk-span scan engine: all-width kernels, superchunk decode, parallel scans.

Three layers under test:

1. the all-width blocked pack/unpack kernels in ``bitpack_fast`` must be
   bit-identical to the scalar reference kernels (``init_scalar`` /
   ``get_scalar`` / ``unpack_chunk_scalar``) for every width 1..64,
   including widths whose elements straddle word boundaries and arrays
   with partial trailing chunks;
2. the superchunk decode path (``SmartArray.decode_chunks`` and the
   span iterator behind ``map_api`` / ``scan_ops``) must preserve
   chunk-aligned semantics and observability;
3. the socket-parallel scan operators must return results identical to
   the serial operators in both ``threads`` and ``serial`` pool modes,
   reading every worker's socket-local replica.
"""

import numpy as np
import pytest

from repro.core import allocate, bitpack, bitpack_fast, scan_ops
from repro.core.map_api import SUPERCHUNK_ELEMENTS, iter_spans, sum_range
from repro.numa import NumaAllocator, machine_2x8_haswell
from repro.runtime import (
    WorkerPool,
    parallel_count_in_range,
    parallel_min_max,
    parallel_select_in_range,
    parallel_sum_blocked,
)

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

    def test_superchunk_knob_changes_decode_batching_only(self, allocator):
        values = random_values(1000, 11)
        sa = allocate(values.size, bits=11, values=values,
                      allocator=allocator)
        expected = scan_ops.count_in_range(sa, 100, 1500)
        for superchunk in (64, 128, 512):
            assert scan_ops.count_in_range(
                sa, 100, 1500, superchunk=superchunk
            ) == expected


class TestParallelScans:
    """Parallel operators == serial operators, on every pool mode."""

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
        assert parallel_sum_blocked(array, pool=pool) == expected
        assert sum_range(array, 0, self.N) == expected

    def test_count_in_range_matches_serial(self, array, pool):
        lo, hi = 500, 7000
        expected = scan_ops.count_in_range(array, lo, hi)
        assert parallel_count_in_range(array, lo, hi, pool=pool) == expected
        assert parallel_count_in_range(
            array, lo, hi, pool=pool, distribution="static"
        ) == expected

    def test_select_in_range_matches_serial(self, array, pool):
        lo, hi = 500, 7000
        expected = scan_ops.select_in_range(array, lo, hi)
        np.testing.assert_array_equal(
            parallel_select_in_range(array, lo, hi, pool=pool), expected
        )
        np.testing.assert_array_equal(
            parallel_select_in_range(
                array, lo, hi, pool=pool, distribution="static"
            ),
            expected,
        )

    def test_min_max_matches_serial(self, array, pool):
        assert parallel_min_max(array, pool=pool) == scan_ops.min_max(array)

    def test_two_array_sum(self, machine, pool):
        alloc = NumaAllocator(machine)
        n = 5000
        a1 = allocate(n, bits=20, values=np.arange(n), allocator=alloc)
        a2 = allocate(n, bits=20, values=np.arange(n)[::-1].copy(),
                      allocator=alloc)
        assert parallel_sum_blocked([a1, a2], pool=pool) == (n - 1) * n

    def test_empty_and_degenerate_ranges(self, array, pool):
        assert parallel_count_in_range(array, 5, 5, pool=pool) == 0
        assert parallel_select_in_range(array, 9, 3, pool=pool).size == 0

    def test_every_socket_replica_used(self, machine, array):
        """The acceptance check: each worker reads its socket's replica.

        Static distribution pins batch ``i`` to worker ``i % n_workers``
        deterministically (dynamic claiming in a serial pool would let
        worker 0 drain every batch), so with workers spread across both
        sockets every replica must serve reads — observable through the
        access statistics.
        """
        pool = WorkerPool(machine, n_workers=4, mode="serial")
        sockets = {ctx.socket for ctx in pool.contexts}
        assert sockets == {0, 1}
        expected = scan_ops.count_in_range(array, 500, 7000)
        array.reset_replica_reads()
        got = parallel_count_in_range(
            array, 500, 7000, pool=pool, distribution="static"
        )
        assert got == expected
        reads = array.replica_read_elements
        assert len(reads) == 2
        assert all(r > 0 for r in reads), reads
        # Every element decoded exactly once across the two replicas.
        assert sum(reads) == -(-self.N // 64) * 64

    def test_threads_mode_reads_only_replicas(self, machine, array):
        """In threads mode total replica reads still cover the array."""
        pool = WorkerPool(machine, n_workers=4, mode="threads")
        array.reset_replica_reads()
        parallel_count_in_range(array, 500, 7000, pool=pool)
        assert sum(array.replica_read_elements) == -(-self.N // 64) * 64

    def test_bad_batch_rejected(self, array, pool):
        with pytest.raises(ValueError):
            parallel_count_in_range(array, 0, 10, pool=pool, batch=100)

    def test_bad_distribution_rejected(self, array, pool):
        with pytest.raises(ValueError):
            parallel_count_in_range(
                array, 0, 10, pool=pool, distribution="guided"
            )
