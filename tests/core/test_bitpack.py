"""Unit and property tests for the Function 1/2/3 kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import bitpack
from repro.core.errors import (
    InvalidBitsError,
    IndexOutOfRangeError,
    ValueOverflowError,
)


def random_values(n, bits, seed=0):
    rng = np.random.default_rng(seed)
    if bits == 64:
        return rng.integers(0, 2**63, size=n, dtype=np.uint64) * 2 + (
            rng.integers(0, 2, size=n, dtype=np.uint64)
        )
    return rng.integers(0, 2**bits, size=n, dtype=np.uint64)


class TestGeometry:
    def test_words_per_chunk_equals_bits(self):
        for bits in range(1, 65):
            assert bitpack.words_per_chunk(bits) == bits

    def test_words_for_full_chunks(self):
        assert bitpack.words_for(64, 33) == 33
        assert bitpack.words_for(128, 33) == 66
        assert bitpack.words_for(64, 1) == 1

    def test_words_for_partial_chunk_rounds_up(self):
        assert bitpack.words_for(1, 33) == 33
        assert bitpack.words_for(65, 10) == 20

    def test_words_for_zero_length(self):
        assert bitpack.words_for(0, 7) == 0

    def test_chunk_always_word_aligned(self):
        # 64 elements x bits is always a multiple of 64 — the alignment
        # property of section 4.2.
        for bits in range(1, 65):
            assert (bitpack.CHUNK_ELEMENTS * bits) % bitpack.WORD_BITS == 0

    def test_storage_bytes(self):
        assert bitpack.storage_bytes(64, 33) == 33 * 8
        assert bitpack.storage_bytes(500_000_000, 64) == pytest.approx(
            4e9, rel=0.01
        )

    @pytest.mark.parametrize("bits", [0, -1, 65, 100, 3.5, "33", None, True])
    def test_invalid_bits_rejected(self, bits):
        with pytest.raises(InvalidBitsError):
            bitpack.check_bits(bits)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            bitpack.words_for(-1, 8)


class TestMaxBitsNeeded:
    def test_empty_needs_one_bit(self):
        assert bitpack.max_bits_needed([]) == 1

    def test_zero_needs_one_bit(self):
        assert bitpack.max_bits_needed([0, 0]) == 1

    @pytest.mark.parametrize(
        "top,expected",
        [(1, 1), (2, 2), (3, 2), (255, 8), (256, 9), (2**33 - 1, 33), (2**63, 64)],
    )
    def test_widths(self, top, expected):
        assert bitpack.max_bits_needed([0, 1, top]) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueOverflowError):
            bitpack.max_bits_needed(np.array([-1, 4], dtype=np.int64))

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            bitpack.max_bits_needed(np.array([1.5]))


class TestScalarKernels:
    @pytest.mark.parametrize("bits", [1, 7, 10, 31, 32, 33, 50, 63, 64])
    def test_init_then_get_roundtrip(self, bits):
        n = 130  # spans three chunks, last one partial
        values = random_values(n, bits, seed=bits)
        words = np.zeros(bitpack.words_for(n, bits), dtype=np.uint64)
        for i, v in enumerate(values):
            bitpack.init_scalar([words], i, int(v), bits)
        for i, v in enumerate(values):
            assert bitpack.get_scalar(words, i, bits) == int(v)

    @pytest.mark.parametrize("bits", [9, 33, 63])
    def test_init_overwrites_previous_value(self, bits):
        words = np.zeros(bitpack.words_for(64, bits), dtype=np.uint64)
        bitpack.init_scalar([words], 3, (1 << bits) - 1, bits)
        bitpack.init_scalar([words], 3, 5, bits)
        assert bitpack.get_scalar(words, 3, bits) == 5

    @pytest.mark.parametrize("bits", [9, 33, 63])
    def test_init_does_not_disturb_neighbours(self, bits):
        n = 64
        words = np.zeros(bitpack.words_for(n, bits), dtype=np.uint64)
        full = (1 << bits) - 1
        for i in range(n):
            bitpack.init_scalar([words], i, full, bits)
        bitpack.init_scalar([words], 10, 0, bits)
        for i in range(n):
            expected = 0 if i == 10 else full
            assert bitpack.get_scalar(words, i, bits) == expected

    def test_init_writes_every_replica(self):
        words_a = np.zeros(33, dtype=np.uint64)
        words_b = np.zeros(33, dtype=np.uint64)
        bitpack.init_scalar([words_a, words_b], 17, 12345, 33)
        assert bitpack.get_scalar(words_a, 17, 33) == 12345
        assert bitpack.get_scalar(words_b, 17, 33) == 12345

    def test_value_overflow_rejected(self):
        words = np.zeros(10, dtype=np.uint64)
        with pytest.raises(ValueOverflowError):
            bitpack.init_scalar([words], 0, 1 << 10, 10)
        with pytest.raises(ValueOverflowError):
            bitpack.init_scalar([words], 0, -1, 10)

    @pytest.mark.parametrize("bits", [1, 10, 31, 32, 33, 50, 63, 64])
    def test_unpack_chunk_matches_gets(self, bits):
        values = random_values(64, bits, seed=bits + 100)
        words = bitpack.pack_array(values, bits)
        out = bitpack.unpack_chunk_scalar(words, 0, bits)
        np.testing.assert_array_equal(out, values)

    def test_unpack_second_chunk(self):
        values = random_values(128, 33, seed=7)
        words = bitpack.pack_array(values, 33)
        out = bitpack.unpack_chunk_scalar(words, 1, 33)
        np.testing.assert_array_equal(out, values[64:128])

    def test_unpack_into_provided_buffer(self):
        values = random_values(64, 12, seed=3)
        words = bitpack.pack_array(values, 12)
        buf = np.zeros(64, dtype=np.uint64)
        result = bitpack.unpack_chunk_scalar(words, 0, 12, out=buf)
        assert result is buf
        np.testing.assert_array_equal(buf, values)


class TestVectorizedKernels:
    @pytest.mark.parametrize("bits", list(range(1, 65)))
    def test_pack_matches_scalar_init_all_widths(self, bits):
        n = 70
        values = random_values(n, bits, seed=bits)
        reference = np.zeros(bitpack.words_for(n, bits), dtype=np.uint64)
        for i, v in enumerate(values):
            bitpack.init_scalar([reference], i, int(v), bits)
        packed = bitpack.pack_array(values, bits)
        np.testing.assert_array_equal(packed, reference)

    @pytest.mark.parametrize("bits", [1, 5, 31, 32, 33, 47, 63, 64])
    def test_unpack_array_roundtrip(self, bits):
        values = random_values(321, bits, seed=bits * 3)
        packed = bitpack.pack_array(values, bits)
        np.testing.assert_array_equal(
            bitpack.unpack_array(packed, values.size, bits), values
        )

    @pytest.mark.parametrize("bits", [3, 33, 64])
    def test_gather_random_indices(self, bits):
        values = random_values(500, bits, seed=1)
        packed = bitpack.pack_array(values, bits)
        rng = np.random.default_rng(2)
        idx = rng.integers(0, 500, size=200)
        np.testing.assert_array_equal(
            bitpack.gather(packed, idx, bits), values[idx]
        )

    @pytest.mark.parametrize("bits", [3, 33, 64])
    def test_scatter_preserves_other_elements(self, bits):
        values = random_values(200, bits, seed=4)
        packed = bitpack.pack_array(values, bits)
        idx = np.array([0, 63, 64, 65, 199])
        new = random_values(idx.size, bits, seed=5)
        bitpack.scatter(packed, idx, new, bits)
        expected = values.copy()
        expected[idx] = new
        np.testing.assert_array_equal(
            bitpack.unpack_array(packed, 200, bits), expected
        )

    @pytest.mark.parametrize("bits", [1, 3, 20, 33, 63, 64])
    def test_scatter_stores_each_word_once(self, bits):
        # A reader between two stores to one word would see a state no
        # write produced (a cleared slot); every changed word must be
        # stored exactly once, already holding its final value.
        class Recording(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if method == "at":
                    raise AssertionError(f"{ufunc.__name__}.at on words")
                inputs = [np.asarray(x) if isinstance(x, Recording) else x
                          for x in inputs]
                return getattr(ufunc, method)(*inputs, **kwargs)

            def __setitem__(self, key, value):
                stores.extend(np.arange(self.size)[key].ravel().tolist())
                np.asarray(self)[key] = value

        values = random_values(300, bits, seed=6)
        packed = bitpack.pack_array(values, bits)
        # Unsorted, adjacent and chunk-straddling indices: many slots
        # share words and spill into the next one.
        idx = np.array([299, 0, 1, 2, 3, 63, 64, 65, 130, 129, 128, 5, 200])
        new = random_values(idx.size, bits, seed=7)
        words = packed.copy().view(Recording)
        stores = []
        bitpack.scatter(words, idx, new, bits)
        assert len(stores) == len(set(stores))
        expected = values.copy()
        expected[idx] = new
        final = bitpack.pack_array(expected, bits)
        np.testing.assert_array_equal(np.asarray(words), final)
        assert set(np.flatnonzero(final != packed).tolist()) <= set(stores)

    def test_scatter_shape_mismatch(self):
        packed = bitpack.pack_array(np.arange(64, dtype=np.uint64), 33)
        with pytest.raises(ValueError):
            bitpack.scatter(packed, [1, 2], [3], 33)

    def test_scatter_overflow(self):
        packed = bitpack.pack_array(np.arange(64, dtype=np.uint64), 10)
        with pytest.raises(ValueOverflowError):
            bitpack.scatter(packed, [1], [1 << 10], 10)

    def test_pack_empty(self):
        assert bitpack.pack_array(np.array([], dtype=np.uint64), 13).size == 0

    def test_unpack_empty(self):
        assert bitpack.unpack_array(np.array([], dtype=np.uint64), 0, 13).size == 0

    def test_pack_overflow_detected(self):
        with pytest.raises(ValueOverflowError):
            bitpack.pack_array(np.array([1 << 20], dtype=np.uint64), 20)


class TestCheckIndex:
    def test_in_range(self):
        assert bitpack.check_index(0, 5) == 0
        assert bitpack.check_index(4, 5) == 4

    @pytest.mark.parametrize("index", [-1, 5, 1000])
    def test_out_of_range(self, index):
        with pytest.raises(IndexOutOfRangeError):
            bitpack.check_index(index, 5)


@settings(max_examples=60, deadline=None)
@given(
    bits=st.integers(min_value=1, max_value=64),
    data=st.data(),
)
def test_property_pack_unpack_roundtrip(bits, data):
    """Any packable sequence round-trips exactly (core invariant)."""
    n = data.draw(st.integers(min_value=0, max_value=200))
    values = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << bits) - 1),
            min_size=n,
            max_size=n,
        )
    )
    arr = np.array(values, dtype=np.uint64)
    packed = bitpack.pack_array(arr, bits)
    np.testing.assert_array_equal(bitpack.unpack_array(packed, n, bits), arr)


@settings(max_examples=40, deadline=None)
@given(
    bits=st.integers(min_value=1, max_value=63),
    index=st.integers(min_value=0, max_value=199),
    value=st.integers(min_value=0),
)
def test_property_scalar_get_matches_vector_gather(bits, index, value):
    """Scalar Function 1 and the vectorized gather always agree."""
    value = value % (1 << bits)
    words = np.zeros(bitpack.words_for(200, bits), dtype=np.uint64)
    bitpack.init_scalar([words], index, value, bits)
    assert bitpack.get_scalar(words, index, bits) == value
    assert int(bitpack.gather(words, np.array([index]), bits)[0]) == value


@settings(max_examples=30, deadline=None)
@given(bits=st.integers(min_value=1, max_value=64), seed=st.integers(0, 2**16))
def test_property_storage_never_larger_than_uncompressed(bits, seed):
    """Compression never *increases* the footprint beyond the 64-bit case."""
    n = 1000
    assert bitpack.storage_bytes(n, bits) <= bitpack.storage_bytes(n, 64)
    # and is monotone in bits
    if bits < 64:
        assert bitpack.storage_bytes(n, bits) <= bitpack.storage_bytes(n, bits + 1)
