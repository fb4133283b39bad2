"""Tests for dictionary, run-length and delta encoding (§7 extensions).

Every scheme is one :func:`~repro.core.encode_array` layout read by the
shared scan operators (``count_in_range``/``select_in_range``/
``count_equal``/``min_max``) and ``sum_range``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    count_equal,
    count_in_range,
    encode_array,
    select_in_range,
    sum_range,
)
from repro.core import bitpack
from repro.numa import NumaAllocator, machine_2x8_haswell


@pytest.fixture
def allocator():
    return NumaAllocator(machine_2x8_haswell())


def _encode(values, codec, allocator):
    return encode_array(np.asarray(values, dtype=np.uint64), codec,
                        allocator=allocator)


class TestDictionaryEncoding:
    def test_roundtrip(self, allocator):
        values = np.array([100, 200, 100, 300, 200, 100], dtype=np.uint64)
        enc = _encode(values, "dict", allocator)
        np.testing.assert_array_equal(enc.to_numpy(), values)
        assert enc.generation.meta.cardinality == 3
        assert len(enc) == 6

    def test_point_access(self, allocator):
        enc = _encode([7, 7, 9, 7], "dict", allocator)
        assert enc.get(2) == 9
        assert enc[0] == 7
        assert enc[-1] == 7

    def test_low_cardinality_beats_bitpacking(self, allocator):
        # 1000 distinct huge values: plain bit compression needs ~60
        # bits/element; dictionary codes need 10.
        rng = np.random.default_rng(0)
        dictionary = rng.integers(2**50, 2**60, size=1000, dtype=np.uint64)
        values = dictionary[rng.integers(0, 1000, size=50_000)]
        enc = _encode(values, "dict", allocator)
        assert enc.bits == 10
        packed = bitpack.storage_bytes(
            values.size, bitpack.max_bits_needed(values))
        assert enc.storage_bytes / packed < 0.25
        assert enc.compression_ratio < 0.25

    def test_order_preserving_predicates(self, allocator):
        enc = _encode([10, 50, 20, 50, 80, 20], "dict", allocator)
        assert count_in_range(enc, 15, 60) == 4   # the 20s and 50s
        np.testing.assert_array_equal(
            select_in_range(enc, 15, 60), [1, 2, 3, 5]
        )
        assert count_in_range(enc, 90, 100) == 0

    def test_codes_for_range(self):
        # The sorted dictionary turns a value range into a code range.
        from repro.core.codecs import _dict_code_range

        dictionary = np.array([10, 20, 30], dtype=np.uint64)
        assert _dict_code_range(
            dictionary, np.uint64(15), np.uint64(30)) == (1, 2)

    def test_empty(self, allocator):
        enc = _encode([], "dict", allocator)
        assert len(enc) == 0
        assert enc.to_numpy().size == 0

    def test_single_value_column(self, allocator):
        enc = _encode(np.full(1000, 42), "dict", allocator)
        assert enc.generation.meta.cardinality == 1
        assert enc.bits == 1
        assert enc.get(999) == 42


class TestRunLengthEncoding:
    def test_roundtrip(self, allocator):
        values = np.array([5, 5, 5, 2, 2, 9], dtype=np.uint64)
        rle = _encode(values, "rle", allocator)
        assert rle.generation.meta.n_runs == 3
        np.testing.assert_array_equal(rle.to_numpy(), values)

    def test_point_access_across_runs(self, allocator):
        values = np.repeat(np.array([1, 2, 3], dtype=np.uint64), [4, 1, 5])
        rle = _encode(values, "rle", allocator)
        for i, v in enumerate(values):
            assert rle.get(i) == int(v)
        assert rle[-1] == 3

    def test_bounds(self, allocator):
        rle = _encode([1, 1], "rle", allocator)
        with pytest.raises(IndexError):
            rle.get(2)

    def test_fast_aggregates(self, allocator):
        values = np.repeat(np.array([3, 10], dtype=np.uint64), [100, 50])
        rle = _encode(values, "rle", allocator)
        assert sum_range(rle) == 3 * 100 + 10 * 50
        assert count_equal(rle, 3) == 100
        assert count_equal(rle, 99) == 0

    def test_compression_on_sorted_data(self, allocator):
        # A sorted low-cardinality column collapses to few runs.
        values = np.sort(
            np.random.default_rng(1).integers(0, 20, size=10_000)
        ).astype(np.uint64)
        rle = _encode(values, "rle", allocator)
        assert rle.generation.meta.n_runs <= 20
        assert rle.compression_ratio < 0.01

    def test_worst_case_no_worse_than_2x_elements(self, allocator):
        # Alternating values: every element its own run.
        values = np.arange(100, dtype=np.uint64) % 2
        rle = _encode(values, "rle", allocator)
        assert rle.generation.meta.n_runs == 100
        np.testing.assert_array_equal(rle.to_numpy(), values)

    def test_empty(self, allocator):
        rle = _encode([], "rle", allocator)
        assert len(rle) == 0 and rle.generation.meta.n_runs == 0
        assert rle.to_numpy().size == 0


@settings(max_examples=30, deadline=None)
@given(values=st.lists(st.integers(min_value=0, max_value=2**40), max_size=300))
def test_property_both_schemes_roundtrip(values):
    """Dictionary and RLE encode/decode are lossless for any input."""
    allocator = NumaAllocator(machine_2x8_haswell())
    arr = np.array(values, dtype=np.uint64)
    for codec in ("dict", "rle"):
        enc = _encode(arr, codec, allocator)
        np.testing.assert_array_equal(enc.to_numpy(), arr)


@settings(max_examples=20, deadline=None)
@given(values=st.lists(st.integers(min_value=0, max_value=2**40),
                       min_size=1, max_size=200))
def test_property_rle_sum_exact(values):
    """An RLE column's sum equals the exact elementwise sum."""
    allocator = NumaAllocator(machine_2x8_haswell())
    arr = np.array(values, dtype=np.uint64)
    rle = _encode(arr, "rle", allocator)
    assert sum_range(rle) == int(arr.astype(object).sum())


class TestDeltaEncoding:
    def test_roundtrip_sorted(self, allocator):
        rng = np.random.default_rng(2)
        values = np.sort(rng.integers(0, 1 << 40, 10_000, dtype=np.uint64))
        enc = _encode(values, "delta", allocator)
        np.testing.assert_array_equal(enc.to_numpy(), values)

    def test_empty_and_single(self, allocator):
        empty = _encode([], "delta", allocator)
        assert len(empty) == 0
        assert empty.to_numpy().size == 0
        one = _encode([42], "delta", allocator)
        assert one.to_numpy().tolist() == [42]


class TestBoundaries:
    """Degenerate shapes and domain edges for every scheme."""

    def test_single_distinct_value_dictionary(self, allocator):
        # Cardinality 1: codes need 0 distinct bits; predicates still
        # resolve in the encoded domain.
        values = np.full(257, 77, dtype=np.uint64)
        enc = _encode(values, "dict", allocator)
        assert enc.generation.meta.cardinality == 1
        np.testing.assert_array_equal(enc.to_numpy(), values)
        assert count_in_range(enc, 77, 78) == 257
        assert count_in_range(enc, 78, 100) == 0

    def test_single_run_rle(self, allocator):
        values = np.full(300, 9, dtype=np.uint64)
        enc = _encode(values, "rle", allocator)
        assert enc.generation.meta.n_runs == 1
        np.testing.assert_array_equal(enc.to_numpy(), values)
        assert count_equal(enc, 9) == 300
        assert sum_range(enc) == 2700

    @pytest.mark.parametrize("scheme", ["dict", "rle"])
    def test_empty_input_range_ops(self, allocator, scheme):
        enc = _encode([], scheme, allocator)
        assert count_in_range(enc, 0, 2 ** 64) == 0
        assert select_in_range(enc, 0, 2 ** 64).size == 0

    @pytest.mark.parametrize("scheme", ["dict", "rle"])
    def test_degenerate_bounds(self, allocator, scheme):
        enc = _encode([3, 5, 5, 8], scheme, allocator)
        assert count_in_range(enc, 5, 5) == 0       # lo == hi
        assert count_in_range(enc, 8, 3) == 0       # lo > hi
        assert count_in_range(enc, 0, 2 ** 64) == 4  # hi above the domain
        assert count_in_range(enc, 5, 2 ** 70) == 3
        assert select_in_range(enc, 5, 5).size == 0

    @pytest.mark.parametrize("bits", [1, 7, 33, 63, 64])
    def test_roundtrip_at_width(self, allocator, bits):
        rng = np.random.default_rng(bits)
        if bits == 64:
            values = rng.integers(0, 1 << 63, 500, dtype=np.uint64) * 2 + 1
        else:
            values = rng.integers(0, 1 << bits, 500, dtype=np.uint64)
        for codec in ("dict", "rle"):
            enc = _encode(values, codec, allocator)
            np.testing.assert_array_equal(enc.to_numpy(), values)
        enc = _encode(np.sort(values), "delta", allocator)
        np.testing.assert_array_equal(enc.to_numpy(), np.sort(values))
