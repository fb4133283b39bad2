"""The byte-period pack kernel (``bitpack_fast.pack_words_blocked``).

The mirror of ``test_byte_period_kernel.py``: ``bitpack.init_scalar``
(paper Function 2) on a zeroed buffer is the reference twin, and the
kernel must match it bit for bit for every width, at lengths that hit
an empty input, a partial first chunk, the chunk and superchunk edges,
and a multi-block input ending in a partial chunk.
"""

import numpy as np
import pytest

from repro.core import bitpack, bitpack_fast
from repro.core.bitpack_fast import pack_words_blocked
from repro.core.errors import ValueOverflowError

ALL_BITS = range(1, 65)
#: Lengths the scalar reference packs element by element.
SHORT_LENGTHS = (0, 1, 63, 64, 65, 4095, 4096, 4097)
#: One whole ``_BLOCK_ELEMENTS`` block plus a 3-element partial chunk.
LONG_LENGTH = 65539


def patterns(n, bits):
    top = (1 << bits) - 1
    rng = np.random.default_rng(64 * bits + n)
    yield "all-zero", np.zeros(n, dtype=np.uint64)
    yield "all-max", np.full(n, top, dtype=np.uint64)
    yield "random", rng.integers(0, top, size=n, dtype=np.uint64,
                                 endpoint=True)


def function2(values, bits):
    """Repeated paper Function 2 writes on a zeroed buffer."""
    words = np.zeros(bitpack.words_for(values.size, bits), dtype=np.uint64)
    for index, value in enumerate(values.tolist()):
        bitpack.init_scalar([words], index, value, bits)
    return words


def chunk_stream(values, bits):
    """The layout's definition, chunk by chunk: slot ``k`` of a chunk
    starts at bit ``k * bits`` of its ``bits`` little-endian words."""
    n_chunks = bitpack.chunks_for(values.size)
    out = bytearray()
    for chunk in range(n_chunks):
        acc = 0
        for k, value in enumerate(values[64 * chunk:64 * chunk + 64].tolist()):
            acc |= value << (k * bits)
        out += acc.to_bytes(8 * bits, "little")
    return np.frombuffer(bytes(out), dtype="<u8").astype(np.uint64)


def assert_well_formed(words, n, bits):
    assert words.dtype == np.uint64
    assert words.shape == (bitpack.words_for(n, bits),)
    assert words.flags.c_contiguous and words.flags.owndata
    assert words.base is None
    if n % 64:
        # Dict decode gathers through padding codes: they must be zero.
        last = bitpack.unpack_chunk_scalar(words, n // 64, bits)
        assert not last[n % 64:].any()


class TestMatchesFunction2:
    @pytest.mark.parametrize("bits", ALL_BITS)
    def test_short_lengths(self, bits):
        for n in SHORT_LENGTHS:
            for name, values in patterns(n, bits):
                words = pack_words_blocked(values, bits)
                assert_well_formed(words, n, bits)
                np.testing.assert_array_equal(
                    words, function2(values, bits),
                    err_msg=f"{bits} bits, {n} elements, {name}")

    @pytest.mark.parametrize("bits", ALL_BITS)
    def test_multi_block_with_a_partial_chunk(self, bits):
        for name, values in patterns(LONG_LENGTH, bits):
            words = pack_words_blocked(values, bits)
            assert_well_formed(words, LONG_LENGTH, bits)
            np.testing.assert_array_equal(
                words, chunk_stream(values, bits),
                err_msg=f"{bits} bits, {name}")

    @pytest.mark.parametrize("bits", [1, 13, 20, 33, 61, 63, 64])
    def test_chunk_stream_is_function2(self, bits):
        # Ties the long-length reference to the paper's Function 2.
        for _name, values in patterns(4097, bits):
            np.testing.assert_array_equal(chunk_stream(values, bits),
                                          function2(values, bits))

    @pytest.mark.parametrize("bits", [3, 20, 62, 63])
    def test_several_blocks_round_trip(self, bits):
        n = 2 * bitpack_fast._BLOCK_ELEMENTS + 3 * 64 + 5
        (_name, values), = [p for p in patterns(n, bits) if p[0] == "random"]
        words = pack_words_blocked(values, bits)
        assert_well_formed(words, n, bits)
        np.testing.assert_array_equal(words, chunk_stream(values, bits))
        np.testing.assert_array_equal(
            bitpack_fast.unpack_array_fast(words, n, bits), values)

    @pytest.mark.parametrize("n", [4096, 4097, 70_000])
    def test_pack_array_dispatch_is_bit_identical(self, n):
        for bits in (7, 33, 63):
            (_name, values), = [p for p in patterns(n, bits)
                                if p[0] == "random"]
            np.testing.assert_array_equal(
                bitpack.pack_array(values, bits),
                pack_words_blocked(values, bits))


class TestOverflow:
    @pytest.mark.parametrize("bits", range(1, 64))
    def test_names_a_value_that_does_not_fit(self, bits):
        n = 5000
        values = np.full(n, (1 << bits) - 1, dtype=np.uint64)
        values[n // 2] = 1 << bits
        values[n - 1] = (1 << 64) - 1
        with pytest.raises(ValueOverflowError) as err:
            pack_words_blocked(values, bits)
        assert err.value.bits == bits
        assert err.value.value >> bits
        assert err.value.value in (1 << bits, (1 << 64) - 1)
        assert str(err.value.value) in str(err.value)
        assert f"{bits} bits" in str(err.value)

    def test_every_value_fits_at_64_bits(self):
        values = np.full(300, (1 << 64) - 1, dtype=np.uint64)
        words = pack_words_blocked(values, 64)
        np.testing.assert_array_equal(words[:300], values)
        assert not words[300:].any()


class TestInputs:
    def reference(self, values, bits):
        return chunk_stream(np.asarray(values, dtype=np.uint64), bits)

    @pytest.mark.parametrize("bits", [5, 20, 33, 63])
    def test_strided_input(self, bits):
        rng = np.random.default_rng(bits)
        backing = rng.integers(0, 1 << bits, size=2 * 4200, dtype=np.uint64)
        strided = backing[::2]
        assert not strided.flags.c_contiguous
        np.testing.assert_array_equal(pack_words_blocked(strided, bits),
                                      self.reference(strided, bits))
        np.testing.assert_array_equal(
            bitpack_fast.unpack_array_fast(
                pack_words_blocked(strided, bits), strided.size, bits),
            strided)

    def test_read_only_input(self):
        values = np.arange(4200, dtype=np.uint64)
        values.flags.writeable = False
        words = pack_words_blocked(values, 13)
        np.testing.assert_array_equal(words, self.reference(values, 13))
        assert words.flags.writeable

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32,
                                       np.int32, np.int64])
    def test_non_uint64_input(self, dtype):
        values = (np.arange(4200) % 250).astype(dtype)
        np.testing.assert_array_equal(pack_words_blocked(values, 8),
                                      self.reference(values, 8))
        np.testing.assert_array_equal(
            pack_words_blocked(values.tolist(), 8),
            self.reference(values, 8))

    def test_result_never_aliases_the_input(self):
        values = np.arange(4096 * 2, dtype=np.uint64)
        words = pack_words_blocked(values, 64)
        assert not np.shares_memory(words, values)
        words[0] = 99
        assert values[0] == 0
