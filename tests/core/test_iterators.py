"""Tests for the iterator model (section 4.3)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    CompressedIterator,
    SmartArrayIterator,
    Uncompressed32Iterator,
    Uncompressed64Iterator,
    allocate,
)
from repro.numa import NumaAllocator, machine_2x8_haswell


@pytest.fixture
def allocator():
    return NumaAllocator(machine_2x8_haswell())


def make(bits, n, allocator, replicated=False):
    sa = allocate(n, bits=bits, replicated=replicated, allocator=allocator)
    sa.fill(np.arange(n, dtype=np.uint64) % (1 << min(bits, 62)))
    return sa


class TestFactory:
    def test_concrete_iterator_selection(self, allocator):
        assert isinstance(
            SmartArrayIterator.allocate(make(64, 64, allocator)),
            Uncompressed64Iterator,
        )
        assert isinstance(
            SmartArrayIterator.allocate(make(32, 64, allocator)),
            Uncompressed32Iterator,
        )
        for bits in (1, 31, 33, 63):
            assert isinstance(
                SmartArrayIterator.allocate(make(bits, 64, allocator)),
                CompressedIterator,
            )

    def test_allocate_binds_socket_replica(self, allocator):
        sa = make(64, 64, allocator, replicated=True)
        it = SmartArrayIterator.allocate(sa, 0, socket=1)
        assert it.replica is sa.allocation.buffers[1]

    def test_start_index_out_of_range(self, allocator):
        sa = make(64, 10, allocator)
        with pytest.raises(IndexError):
            SmartArrayIterator.allocate(sa, 11)


class TestScan:
    @pytest.mark.parametrize("bits", [1, 10, 31, 32, 33, 50, 63, 64])
    def test_full_scan_matches_contents(self, bits, allocator):
        n = 200  # crosses chunk boundaries, ends mid-chunk
        sa = make(bits, n, allocator)
        expected = sa.to_numpy()
        it = SmartArrayIterator.allocate(sa, 0)
        for i in range(n):
            assert it.get() == int(expected[i]), f"mismatch at {i}"
            it.next()

    @pytest.mark.parametrize("bits", [33, 64])
    def test_scan_from_offset(self, bits, allocator):
        # Callisto batches start iterators mid-array (section 4.3 example).
        sa = make(bits, 200, allocator)
        it = SmartArrayIterator.allocate(sa, 100)
        np.testing.assert_array_equal(it.take(50), sa.to_numpy()[100:150])

    @pytest.mark.parametrize("bits", [10, 33])
    def test_offset_mid_chunk(self, bits, allocator):
        sa = make(bits, 200, allocator)
        it = SmartArrayIterator.allocate(sa, 70)  # chunk 1, offset 6
        assert it.get() == sa.get(70)

    def test_reset(self, allocator):
        sa = make(33, 200, allocator)
        it = SmartArrayIterator.allocate(sa, 0)
        for _ in range(150):
            it.next()
        it.reset(5)
        assert it.index == 5
        assert it.get() == sa.get(5)

    def test_reset_out_of_range(self, allocator):
        it = SmartArrayIterator.allocate(make(33, 64, allocator))
        with pytest.raises(IndexError):
            it.reset(65)

    def test_take_clamps_at_end(self, allocator):
        sa = make(64, 10, allocator)
        it = SmartArrayIterator.allocate(sa, 8)
        assert it.take(10).size == 2


class TestCompressedChunkBuffer:
    def test_buffer_refreshes_on_chunk_crossing(self, allocator):
        sa = make(33, 130, allocator)
        it = SmartArrayIterator.allocate(sa, 0)
        seen = [it.get()]
        for _ in range(129):
            it.next()
            seen.append(it.get())
        np.testing.assert_array_equal(np.array(seen, dtype=np.uint64), sa.to_numpy())

    def test_no_unpack_past_end(self, allocator):
        # Advancing past the last element must not unpack a nonexistent
        # chunk (regression guard for the boundary at length % 64 == 0).
        sa = make(33, 64, allocator)
        it = SmartArrayIterator.allocate(sa, 0)
        for _ in range(64):
            it.next()  # final next() lands at index 64 == length
        assert it.index == 64

    def test_iterator_at_end_of_empty_region(self, allocator):
        sa = make(33, 64, allocator)
        it = SmartArrayIterator.allocate(sa, 64)
        assert it.index == 64


class TestReplicaIteration:
    @pytest.mark.parametrize("bits", [32, 33, 64])
    def test_each_socket_sees_same_data(self, bits, allocator):
        sa = make(bits, 100, allocator, replicated=True)
        it0 = SmartArrayIterator.allocate(sa, 0, socket=0)
        it1 = SmartArrayIterator.allocate(sa, 0, socket=1)
        for _ in range(100):
            assert it0.get() == it1.get()
            it0.next()
            it1.next()


@settings(max_examples=20, deadline=None)
@given(
    bits=st.integers(min_value=1, max_value=64),
    n=st.integers(min_value=1, max_value=250),
    start=st.data(),
)
def test_property_iterator_equals_direct_gets(bits, n, start):
    """From any start index, iterator scan == direct get() sequence."""
    allocator = NumaAllocator(machine_2x8_haswell())
    s = start.draw(st.integers(min_value=0, max_value=n - 1))
    sa = allocate(n, bits=bits, allocator=allocator)
    rng = np.random.default_rng(bits * 1000 + n)
    hi = (1 << bits) - 1
    sa.fill(rng.integers(0, hi + 1 if hi < 2**63 else 2**63, size=n, dtype=np.uint64))
    it = SmartArrayIterator.allocate(sa, s)
    for i in range(s, n):
        assert it.get() == sa.get(i)
        it.next()
