"""Tests for the blocked fast paths and the selection-scan operators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import allocate, bitpack
from repro.core.bitpack_fast import (
    pack_words_blocked,
    unpack_array_fast,
    unpack_words_blocked,
)
from repro.core.errors import ValueOverflowError
from repro.core.scan_ops import (
    count_equal,
    count_in_range,
    min_max,
    select_in_range,
    select_where,
)
from repro.numa import NumaAllocator, machine_2x8_haswell


#: Widths with whole elements per word (pack keeps a per-word path).
DIVISOR_WIDTHS = (1, 2, 4, 8, 16, 32, 64)


@pytest.fixture
def allocator():
    return NumaAllocator(machine_2x8_haswell())


def pack_scalar(values, bits):
    """Paper Function 2, one element at a time: the oracle both bulk
    packers answer to (``pack_array`` dispatches to the blocked one for
    bulk inputs, so the two cannot vouch for each other)."""
    words = np.zeros(bitpack.words_for(len(values), bits), dtype=np.uint64)
    for i, v in enumerate(values):
        bitpack.init_scalar([words], i, int(v), bits)
    return words


class TestBlockedFastPath:
    @pytest.mark.parametrize("bits", DIVISOR_WIDTHS)
    def test_blocked_unpack_matches_generic(self, bits):
        rng = np.random.default_rng(bits)
        hi = (1 << bits) - 1
        values = rng.integers(0, hi + 1 if hi < 2**63 else 2**63, size=333,
                              dtype=np.uint64)
        words = bitpack.pack_array(values, bits)
        np.testing.assert_array_equal(
            unpack_words_blocked(words, 333, bits), values
        )

    @pytest.mark.parametrize("bits", DIVISOR_WIDTHS)
    def test_blocked_pack_matches_generic(self, bits):
        rng = np.random.default_rng(bits + 7)
        hi = (1 << bits) - 1
        values = rng.integers(0, hi + 1 if hi < 2**63 else 2**63, size=200,
                              dtype=np.uint64)
        expected = pack_scalar(values, bits)
        np.testing.assert_array_equal(pack_words_blocked(values, bits),
                                      expected)
        np.testing.assert_array_equal(bitpack.pack_array(values, bits),
                                      expected)

    @pytest.mark.parametrize("bits", [3, 10, 33, 63])
    def test_non_divisor_widths_supported(self, bits):
        assert bits not in DIVISOR_WIDTHS
        rng = np.random.default_rng(bits)
        values = rng.integers(0, 1 << bits, size=333, dtype=np.uint64)
        words = pack_words_blocked(values, bits)
        np.testing.assert_array_equal(words, pack_scalar(values, bits))
        np.testing.assert_array_equal(words, bitpack.pack_array(values, bits))
        np.testing.assert_array_equal(
            unpack_words_blocked(words, 333, bits), values
        )

    @pytest.mark.parametrize("bits", [1, 8, 33, 64])
    def test_dispatching_unpack_all_widths(self, bits):
        rng = np.random.default_rng(1)
        hi = (1 << bits) - 1
        values = rng.integers(0, hi + 1 if hi < 2**63 else 2**63, size=100,
                              dtype=np.uint64)
        words = bitpack.pack_array(values, bits)
        np.testing.assert_array_equal(
            unpack_array_fast(words, 100, bits), values
        )

    def test_overflow_detected(self):
        with pytest.raises(ValueOverflowError):
            pack_words_blocked(np.array([256], dtype=np.uint64), 8)

    @pytest.mark.parametrize("bits", [1, 7, 20, 32, 33, 63, 64])
    @pytest.mark.parametrize("n", [4095, 4096, 4097, 8192])
    def test_pack_array_either_side_of_the_bulk_dispatch(self, bits, n):
        # Up to one superchunk pack_array scatters per element, above
        # it the blocked kernel takes over: same words either way.
        rng = np.random.default_rng([bits, n])
        values = rng.integers(0, 1 << min(bits, 63), size=n, dtype=np.uint64)
        values[-1] = (1 << bits) - 1
        np.testing.assert_array_equal(bitpack.pack_array(values, bits),
                                      pack_scalar(values, bits))

    @pytest.mark.parametrize("n", [10, 5000])
    def test_pack_array_overflow_either_side(self, n):
        values = np.zeros(n, dtype=np.uint64)
        values[n // 2] = 1 << 20
        with pytest.raises(ValueOverflowError):
            bitpack.pack_array(values, 20)

    def test_empty(self):
        assert unpack_words_blocked(np.zeros(0, dtype=np.uint64), 0, 8).size == 0
        assert pack_words_blocked(np.zeros(0, dtype=np.uint64), 8).size == 0


class TestSelectionScans:
    @pytest.fixture
    def array(self, allocator):
        rng = np.random.default_rng(5)
        values = rng.integers(0, 1000, size=500, dtype=np.uint64)
        sa = allocate(500, bits=10, values=values, allocator=allocator)
        return sa, values

    def test_select_in_range(self, array):
        sa, values = array
        idx = select_in_range(sa, 100, 300)
        expected = np.nonzero((values >= 100) & (values < 300))[0]
        np.testing.assert_array_equal(idx, expected)

    def test_count_in_range(self, array):
        sa, values = array
        assert count_in_range(sa, 100, 300) == int(
            ((values >= 100) & (values < 300)).sum()
        )

    def test_degenerate_ranges(self, array):
        sa, _ = array
        assert count_in_range(sa, 300, 100) == 0
        assert select_in_range(sa, 5, 5).size == 0
        assert count_in_range(sa, -10, 0) == 0

    def test_count_equal(self, array):
        sa, values = array
        target = int(values[0])
        assert count_equal(sa, target) == int((values == target).sum())
        assert count_equal(sa, -3) == 0

    def test_select_where_arbitrary_predicate(self, array):
        sa, values = array
        idx = select_where(sa, lambda s: s % np.uint64(7) == 0)
        expected = np.nonzero(values % 7 == 0)[0]
        np.testing.assert_array_equal(idx, expected)

    def test_select_where_bad_predicate(self, array):
        sa, _ = array
        with pytest.raises(ValueError):
            select_where(sa, lambda s: s[:1] > 0)

    def test_sub_range_scan(self, array):
        sa, values = array
        idx = select_in_range(sa, 0, 1000, start=100, stop=200)
        assert idx.min() >= 100 and idx.max() < 200
        assert idx.size == 100  # everything is < 1000

    def test_min_max(self, array):
        sa, values = array
        lo, hi = min_max(sa)
        assert lo == int(values.min()) and hi == int(values.max())
        lo2, hi2 = min_max(sa, 10, 20)
        assert lo2 == int(values[10:20].min())

    def test_min_max_empty(self, array):
        sa, _ = array
        with pytest.raises(ValueError):
            min_max(sa, 5, 5)

    def test_replica_selection(self, allocator):
        sa = allocate(100, bits=8, replicated=True,
                      values=np.arange(100) % 256, allocator=allocator)
        assert count_in_range(sa, 0, 50, socket=1) == 50


@settings(max_examples=25, deadline=None)
@given(
    bits=st.integers(min_value=1, max_value=64),
    n=st.integers(min_value=0, max_value=400),
    seed=st.integers(0, 10_000),
)
def test_property_blocked_roundtrip(bits, n, seed):
    """Blocked pack -> blocked unpack is the identity on every width."""
    rng = np.random.default_rng(seed)
    hi = (1 << bits) - 1
    values = rng.integers(0, hi + 1 if hi < 2**63 else 2**63, size=n,
                          dtype=np.uint64)
    words = pack_words_blocked(values, bits)
    np.testing.assert_array_equal(
        unpack_words_blocked(words, n, bits), values
    )
