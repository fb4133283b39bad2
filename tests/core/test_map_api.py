"""Tests for the bounded map() API (the paper's §7 iterator alternative)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    SmartArrayIterator,
    allocate,
    iter_spans,
    map_range,
    map_reduce,
    sum_range,
)
from repro.numa import NumaAllocator, machine_2x8_haswell


@pytest.fixture
def allocator():
    return NumaAllocator(machine_2x8_haswell())


@pytest.fixture
def array(allocator):
    values = np.arange(200, dtype=np.uint64)
    return allocate(200, bits=33, values=values, allocator=allocator)


class TestMapRange:
    def test_identity_returns_contents(self, array):
        np.testing.assert_array_equal(
            map_range(array, lambda s: s), array.to_numpy()
        )

    def test_transformation_applied(self, array):
        doubled = map_range(array, lambda s: s * np.uint64(2), 10, 20)
        np.testing.assert_array_equal(
            doubled, np.arange(10, 20, dtype=np.uint64) * 2
        )

    def test_unaligned_range_spanning_chunks(self, array):
        out = map_range(array, lambda s: s, 50, 150)
        np.testing.assert_array_equal(out, np.arange(50, 150, dtype=np.uint64))

    def test_empty_range(self, array):
        assert map_range(array, lambda s: s, 30, 30).size == 0

    def test_bad_range_rejected(self, array):
        with pytest.raises(IndexError):
            map_range(array, lambda s: s, 100, 50)
        with pytest.raises(IndexError):
            map_range(array, lambda s: s, 0, 201)

    def test_length_changing_fn_rejected(self, array):
        with pytest.raises(ValueError):
            map_range(array, lambda s: s[:1])

    def test_replica_selection(self, allocator):
        sa = allocate(100, bits=20, replicated=True,
                      values=np.arange(100), allocator=allocator)
        np.testing.assert_array_equal(
            map_range(sa, lambda s: s, socket=1),
            np.arange(100, dtype=np.uint64),
        )

    @pytest.mark.parametrize("bits", [32, 64])
    def test_specialized_widths(self, bits, allocator):
        sa = allocate(130, bits=bits, values=np.arange(130),
                      allocator=allocator)
        np.testing.assert_array_equal(
            map_range(sa, lambda s: s), np.arange(130, dtype=np.uint64)
        )


def spans(array, *args, **kwargs):
    return [(pos, len(span)) for pos, span in iter_spans(array, *args,
                                                          **kwargs)]


class TestForEachChunk:
    """The side-effect form of the bounded map(): a loop over
    :func:`iter_spans`."""

    def test_visits_whole_array_in_order(self, array):
        # One superchunk covers all 200 elements: a single span.
        assert spans(array) == [(0, 200)]

    def test_superchunk_knob_restores_chunk_granularity(self, array):
        assert spans(array, superchunk=64) == [(0, 64), (64, 64), (128, 64),
                                               (192, 8)]

    def test_partial_range(self, array):
        assert spans(array, 60, 70) == [(60, 10)]

    def test_spans_split_at_superchunk_boundaries(self, array):
        assert spans(array, 60, 150, superchunk=128) == [(60, 68), (128, 22)]

    def test_bad_superchunk_rejected(self, array):
        with pytest.raises(ValueError):
            spans(array, superchunk=100)
        with pytest.raises(ValueError):
            spans(array, superchunk=0)


class TestMapReduce:
    def test_sum_of_squares(self, array):
        result = map_reduce(
            array,
            lambda s: s.astype(np.float64) ** 2,
            lambda acc, s: acc + float(s.sum()),
            0.0,
        )
        expected = float((np.arange(200, dtype=np.float64) ** 2).sum())
        assert result == pytest.approx(expected)

    def test_max_reduction(self, array):
        result = map_reduce(
            array, lambda s: s, lambda acc, s: max(acc, int(s.max())), -1
        )
        assert result == 199


class TestSumRange:
    def test_matches_iterator_aggregation(self, array):
        it = SmartArrayIterator.allocate(array, 25)
        expected = 0
        for _ in range(25, 175):
            expected += it.get()
            it.next()
        assert sum_range(array, 25, 175) == expected

    def test_full_sum(self, array):
        assert sum_range(array) == sum(range(200))

    def test_exact_for_large_values(self, allocator):
        big = (1 << 64) - 1
        sa = allocate(70, bits=64, values=np.full(70, big, dtype=np.uint64),
                      allocator=allocator)
        assert sum_range(sa) == 70 * big


@settings(max_examples=25, deadline=None)
@given(
    bits=st.integers(min_value=1, max_value=64),
    bounds=st.data(),
)
def test_property_map_equals_iterator_scan(bits, bounds):
    """map_range(identity) over any range == iterator take() there."""
    allocator = NumaAllocator(machine_2x8_haswell())
    n = bounds.draw(st.integers(min_value=1, max_value=300))
    start = bounds.draw(st.integers(min_value=0, max_value=n))
    stop = bounds.draw(st.integers(min_value=start, max_value=n))
    rng = np.random.default_rng(bits)
    hi = (1 << bits) - 1
    values = rng.integers(0, hi + 1 if hi < 2**63 else 2**63, size=n,
                          dtype=np.uint64)
    sa = allocate(n, bits=bits, values=values, allocator=allocator)
    mapped = map_range(sa, lambda s: s, start, stop)
    it = SmartArrayIterator.allocate(sa, start)
    np.testing.assert_array_equal(mapped, it.take(stop - start))
