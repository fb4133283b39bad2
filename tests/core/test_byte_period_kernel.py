"""The byte-period unpack kernel (``bitpack_fast``), every width 1..64.

``bitpack.unpack_chunk_scalar`` (paper Function 3) is the reference
twin: the kernel must be bit-identical to it for every width, every
chunk count and every position in the buffer — including the last chunk
of a buffer with no spare byte behind it, where the kernel's
power-of-two loads must not run off the end.
"""

import mmap
import sys
import threading

import numpy as np
import pytest

from repro.core import allocate, bitpack, bitpack_fast
from repro.core.bitpack_fast import _byte_period, unpack_chunk_range
from repro.core.codecs import (
    decode_chunk_span,
    decode_words,
    encode_array,
    encode_words,
)
from repro.numa import NumaAllocator, machine_2x8_haswell

ALL_BITS = range(1, 65)
CHUNK_COUNTS = (0, 1, 2, 63, 64, 1025)


def random_values(n, bits, seed=0):
    rng = np.random.default_rng(seed + 64 * bits + n)
    return rng.integers(0, (1 << bits) - 1, size=n, dtype=np.uint64,
                        endpoint=True)


def patterns(n, bits):
    ones = (1 << bits) - 1
    yield "random", random_values(n, bits)
    yield "all-ones", np.full(n, ones, dtype=np.uint64)
    # Neighbours differ in every bit: a mask one bit too wide, or a
    # spill ORed in at the wrong shift, shows up in the zero elements.
    yield "alternating", np.where(
        np.arange(n) % 2 == 0, ones, 0).astype(np.uint64)
    yield "alternating-bits", np.where(
        np.arange(n) % 2 == 0, 0xAAAAAAAAAAAAAAAA & ones,
        0x5555555555555555 & ones).astype(np.uint64)


class TestLayout:
    @pytest.mark.parametrize("bits", ALL_BITS)
    def test_period_covers_whole_elements_in_at_most_8_lanes(self, bits):
        period, lanes, overread, layout = _byte_period(bits)
        assert lanes in (1, 2, 4, 8) and len(layout) == lanes
        assert period * 8 == lanes * bits
        assert bitpack.CHUNK_ELEMENTS % lanes == 0
        assert 0 <= overread <= 3
        for lane, (byte, load, _shift, _mask, spills) in enumerate(layout):
            bit = lane * bits - 8 * byte
            assert 0 <= bit < 8
            assert spills == (bit + bits > 64)
            # The load (plus the ninth byte) covers the element ...
            assert 8 * (load.itemsize + spills) >= bit + bits
            # ... and no narrower power of two would.
            assert load.itemsize == 1 or 4 * load.itemsize < min(bit + bits, 64)

    def test_which_widths_need_the_ninth_byte(self):
        # 58 and 60 bits top out at exactly 64 (offsets 6 and 4).
        spilling = {bits for bits in ALL_BITS
                    if any(lane[4] for lane in _byte_period(bits)[3])}
        assert spilling == {59, 61, 62, 63}

    def test_byte_multiples_are_a_single_pass(self):
        for bits in (8, 16, 32, 64):
            _period, lanes, overread, layout = _byte_period(bits)
            (_byte, _load, shift, mask, _spills), = layout
            assert (lanes, overread, shift, mask) == (1, 0, None, None)


class TestMatchesScalarReference:
    @pytest.mark.parametrize("bits", ALL_BITS)
    def test_every_chunk_count_and_position_in_an_exact_buffer(self, bits):
        for n_chunks in CHUNK_COUNTS:
            n = n_chunks * bitpack.CHUNK_ELEMENTS
            for name, values in patterns(n, bits):
                words = bitpack.pack_array(values, bits)
                assert words.size == bitpack.words_for(n, bits)
                np.testing.assert_array_equal(
                    unpack_chunk_range(words, 0, n_chunks, bits), values,
                    err_msg=f"{bits} bits, {n_chunks} chunks, {name}")
                if not n_chunks:
                    continue
                for chunk in {0, n_chunks // 2, n_chunks - 1}:
                    np.testing.assert_array_equal(
                        unpack_chunk_range(words, chunk, 1, bits),
                        bitpack.unpack_chunk_scalar(words, chunk, bits),
                        err_msg=f"{bits} bits, chunk {chunk}/{n_chunks}, "
                                f"{name}")

    @pytest.mark.parametrize("bits", ALL_BITS)
    def test_interior_range_ignores_what_follows_it(self, bits):
        values = random_values(5 * bitpack.CHUNK_ELEMENTS, bits)
        words = bitpack.pack_array(values, bits)
        # Chunks 1..3 decode the same whether chunk 4 holds data, ones
        # or nothing at all (the over-read bytes are masked off).
        expected = values[64:256]
        for following in (words[4 * bits:],
                          np.full(bits, 2**64 - 1, dtype=np.uint64),
                          np.empty(0, dtype=np.uint64)):
            buf = np.concatenate([words[:4 * bits], following])
            np.testing.assert_array_equal(
                unpack_chunk_range(buf, 1, 3, bits), expected)

    @pytest.mark.parametrize("bits", ALL_BITS)
    def test_unaligned_lengths_through_unpack_array_fast(self, bits):
        for length in (1, 63, 65, 333):
            values = random_values(length, bits)
            words = bitpack.pack_array(values, bits)
            got = bitpack_fast.unpack_array_fast(words, length, bits)
            assert got.dtype == np.uint64 and got.shape == (length,)
            np.testing.assert_array_equal(got, values)

    def test_multi_block_decode(self):
        # More than one _BLOCK_ELEMENTS block, the last one partial.
        n = 2 * bitpack_fast._BLOCK_ELEMENTS + 3 * bitpack.CHUNK_ELEMENTS
        for bits in (13, 20, 24, 61):
            values = random_values(n, bits)
            words = bitpack.pack_array(values, bits)
            np.testing.assert_array_equal(
                bitpack_fast.unpack_array_fast(words, n, bits), values)


class TestNoOverRead:
    @pytest.mark.parametrize("bits", ALL_BITS)
    def test_last_chunk_at_the_end_of_an_mmap_region(self, bits):
        n_chunks = 3
        values = random_values(n_chunks * bitpack.CHUNK_ELEMENTS, bits)
        packed = bitpack.pack_array(values, bits)
        with mmap.mmap(-1, mmap.PAGESIZE * (1 + packed.nbytes
                                            // mmap.PAGESIZE)) as region:
            mapped = np.frombuffer(region, dtype=np.uint64)
            # The buffer's last byte is the region's last byte.
            words = mapped[mapped.size - packed.size:]
            words[:] = packed
            try:
                np.testing.assert_array_equal(
                    unpack_chunk_range(words, n_chunks - 1, 1, bits),
                    bitpack.unpack_chunk_scalar(packed, n_chunks - 1, bits))
                np.testing.assert_array_equal(
                    unpack_chunk_range(words, 0, n_chunks, bits), values)
            finally:
                del words, mapped  # release the exported buffer

    def test_read_only_words_are_decoded_in_place(self):
        values = random_values(128, 20)
        words = bitpack.pack_array(values, 20)
        words.flags.writeable = False
        np.testing.assert_array_equal(
            unpack_chunk_range(words, 0, 2, 20), values)

    def test_strided_and_byteswapped_words_take_one_copy(self):
        values = random_values(192, 33)
        words = bitpack.pack_array(values, 33)
        strided = np.zeros(2 * words.size, dtype=np.uint64)[::2]
        strided[:] = words
        swapped = words.astype(words.dtype.newbyteorder())
        for buf in (strided, swapped):
            np.testing.assert_array_equal(
                unpack_chunk_range(buf, 1, 2, 33), values[64:])


class TestValidation:
    def test_existing_checks_survive(self):
        words = bitpack.pack_array(random_values(128, 7), 7)
        for bits in (0, 65):
            with pytest.raises(ValueError):
                unpack_chunk_range(words, 0, 1, bits)
        with pytest.raises(ValueError, match="non-negative"):
            unpack_chunk_range(words, -1, 1, 7)
        with pytest.raises(ValueError, match="non-negative"):
            unpack_chunk_range(words, 0, -1, 7)
        with pytest.raises(ValueError, match="need 128"):
            unpack_chunk_range(words, 0, 2, 7,
                               out=np.empty(127, dtype=np.uint64))
        with pytest.raises(ValueError, match="word buffer too small"):
            unpack_chunk_range(words, 1, 2, 7)
        with pytest.raises(ValueError, match="word buffer too small"):
            bitpack_fast.unpack_words_blocked(words[:-1], 128, 7)

    @pytest.mark.parametrize("out", [
        np.empty(128, dtype=np.uint32),
        np.empty(128, dtype=np.int64),
        np.empty(128, dtype=np.float64),
        np.empty((2, 64), dtype=np.uint64),
    ], ids=["uint32", "int64", "float64", "2-D"])
    def test_out_must_be_flat_uint64(self, out):
        # A uint32 scratch used to come back silently truncated.
        values = np.full(128, (1 << 40) - 1, dtype=np.uint64)
        words = bitpack.pack_array(values, 40)
        with pytest.raises(ValueError, match="1-D uint64"):
            unpack_chunk_range(words, 0, 2, 40, out=out)

    def test_out_must_be_writeable(self):
        words = bitpack.pack_array(random_values(64, 9), 9)
        out = np.empty(64, dtype=np.uint64)
        out.flags.writeable = False
        with pytest.raises(ValueError, match="read-only"):
            unpack_chunk_range(words, 0, 1, 9, out=out)

    def test_oversized_and_strided_out_are_written_in_place(self):
        values = random_values(128, 13)
        words = bitpack.pack_array(values, 13)
        backing = np.zeros(400, dtype=np.uint64)
        for out in (backing[:200], backing[::2]):
            result = unpack_chunk_range(words, 0, 2, 13, out=out)
            assert result.shape == (128,) and np.shares_memory(result, backing)
            np.testing.assert_array_equal(out[:128], values)

    @pytest.mark.parametrize("codec", ["bitpack", "dict", "rle", "delta"])
    def test_decode_chunks_rejects_a_narrow_out(self, codec):
        allocator = NumaAllocator(machine_2x8_haswell())
        values = np.sort(random_values(256, 40) >> np.uint64(20) << np.uint64(20))
        if codec == "bitpack":
            array = allocate(256, bits=40, values=values, allocator=allocator)
        else:
            array = encode_array(values, codec, allocator=allocator)
        with pytest.raises(ValueError, match="1-D uint64"):
            array.decode_chunks(0, 2, out=np.empty(128, dtype=np.uint32))
        out = np.empty(128, dtype=np.uint64)
        np.testing.assert_array_equal(
            array.decode_chunks(1, 2, out=out), values[64:192])


class TestCodecSections:
    """dict / rle / delta sections decode through the same kernel."""

    @staticmethod
    def columns(n):
        rng = np.random.default_rng(n)
        return {
            "dict": rng.choice(
                rng.integers(0, 1 << 50, size=37, dtype=np.uint64), size=n),
            "rle": np.repeat(
                rng.integers(0, 1 << 29, size=n // 9 + 1, dtype=np.uint64),
                9)[:n],
            "delta": (np.uint64(1 << 41) + np.cumsum(
                rng.integers(0, 1000, size=n, dtype=np.uint64))),
        }

    @pytest.mark.parametrize("codec", ["dict", "rle", "delta"])
    @pytest.mark.parametrize("n", [1, 64, 1000, 70_000])
    def test_round_trip_full_and_by_chunk_span(self, codec, n):
        values = self.columns(n)[codec]
        words, meta, _bits = encode_words(values, codec)
        np.testing.assert_array_equal(decode_words(words, meta), values)
        n_chunks = bitpack.chunks_for(n)
        padded = np.zeros(n_chunks * bitpack.CHUNK_ELEMENTS, dtype=np.uint64)
        padded[:n] = values
        for first, count in {(0, n_chunks), (n_chunks - 1, 1),
                             (n_chunks // 2, n_chunks - n_chunks // 2)}:
            np.testing.assert_array_equal(
                decode_chunk_span(words, meta, first, count),
                padded[first * 64:(first + count) * 64])


class TestConcurrentWriter:
    @pytest.mark.parametrize("bits", [13, 20, 61])
    def test_decode_racing_scatter_on_disjoint_rows(self, bits):
        """Readers own the even rows, the writer scatters the odd rows
        of the same chunks (so they share words): every decode must see
        the even rows intact."""
        allocator = NumaAllocator(machine_2x8_haswell())
        n = 40 * bitpack.CHUNK_ELEMENTS
        values = random_values(n, bits)
        array = allocate(n, bits=bits, values=values, allocator=allocator)
        odd = np.arange(1, n, 2)
        stop = threading.Event()
        failures = []

        def write():
            rng = np.random.default_rng(bits)
            while not stop.is_set():
                array.scatter_many(odd, rng.integers(
                    0, 1 << bits, size=odd.size, dtype=np.uint64))

        def read():
            out = np.empty(n, dtype=np.uint64)
            for _ in range(150):
                got = array.decode_chunks(0, n // 64, out=out)
                if not np.array_equal(got[::2], values[::2]):
                    failures.append("even rows changed under a reader")
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        writer = threading.Thread(target=write)
        readers = [threading.Thread(target=read) for _ in range(3)]
        try:
            writer.start()
            for thread in readers:
                thread.start()
            for thread in readers:
                thread.join(timeout=60)
        finally:
            stop.set()
            writer.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not writer.is_alive()
        assert not any(thread.is_alive() for thread in readers)
        assert not failures
