"""Bit-compression kernels for smart arrays (paper Functions 1, 2, 3).

A bit-compressed array stores unsigned integers using ``bits`` bits per
element (``1 <= bits <= 64``).  Elements are logically grouped into
*chunks* of :data:`CHUNK_ELEMENTS` (64) numbers.  A chunk of 64 elements
at ``bits`` bits occupies exactly ``bits`` 64-bit words, so every chunk
starts and ends on a 64-bit word boundary regardless of the bit width.
This is the alignment property the paper exploits (section 4.2): the
same compression and decompression logic runs unchanged across chunks.

Two families of kernels live here:

* *Scalar* kernels (:func:`get_scalar`, :func:`init_scalar`,
  :func:`unpack_chunk_scalar`) transliterate the paper's pseudocode
  (Functions 1-3) element by element.  They are the reference
  implementation and the specification the tests check everything else
  against.
* *Vectorized* kernels (:func:`pack_array`, :func:`unpack_array`,
  :func:`gather`) are NumPy equivalents used for bulk initialization,
  bulk scans, and random gathers.  They produce bit-identical word
  buffers and element values.

Words use little-endian bit order within a 64-bit word, as on the
paper's Intel machines: element ``i`` of a chunk starts at bit
``(i % 64) * bits`` counted from the least-significant bit of the
chunk's first word.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import IndexOutOfRangeError, InvalidBitsError, ValueOverflowError

#: Number of elements per logical chunk.  64 elements x ``bits`` bits is
#: always a whole number of 64-bit words, which is why the paper chunks
#: by 64.
CHUNK_ELEMENTS = 64

#: Bits per storage word.
WORD_BITS = 64

_WORD_MASK = (1 << WORD_BITS) - 1

#: Up to one superchunk :func:`pack_array` scatters per element; above
#: it the byte-period kernel takes over.  At 4,096 elements the kernel
#: is the faster of the two (1.0-4x by width), but the live migrator's
#: default 64-chunk step sits exactly here, and routing those steps
#: through the kernel's many short GIL-holding passes buys migration
#: speed with reader latency.  Measured on a 2-vCPU x86-64 VM
#: (``embedded_write_read``, two traced seeds and four untraced pairs):
#: ``live.chunks_per_s`` rose 30-40k -> 62-123k and ``live.migrate_s``
#: fell 1.6-2.0 -> 0.5-1.1 s, but ``live.reader_slowdown`` rose
#: 1.38-1.42 -> 1.45-1.67 and the untraced reader ``p50_ms`` rose
#: 4-12 % in 4/4 pairs.  Readers come first, so the boundary case stays
#: on the scatter (``benchmarks/bench_live_adaptation.py`` re-measures
#: the reader side).
_SCATTER_PACK_MAX = 64 * CHUNK_ELEMENTS


def check_bits(bits: int) -> int:
    """Validate a bit width, returning it; raise :class:`InvalidBitsError`."""
    if not isinstance(bits, (int, np.integer)) or isinstance(bits, bool):
        raise InvalidBitsError(bits)
    bits = int(bits)
    if bits < 1 or bits > WORD_BITS:
        raise InvalidBitsError(bits)
    return bits


def element_mask(bits: int) -> int:
    """The mask extracting one ``bits``-wide element (Function 1, line 7)."""
    check_bits(bits)
    return (1 << bits) - 1


def words_per_chunk(bits: int) -> int:
    """Words used by one 64-element chunk; equals ``bits`` by construction."""
    return check_bits(bits)


def chunks_for(length: int) -> int:
    """Number of chunks needed to hold ``length`` elements."""
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    return (length + CHUNK_ELEMENTS - 1) // CHUNK_ELEMENTS


def words_for(length: int, bits: int) -> int:
    """Number of 64-bit storage words for ``length`` elements at ``bits``.

    Partial trailing chunks are rounded up to a full chunk so that
    :func:`unpack_chunk_scalar` may always read a complete chunk, exactly
    as in the paper's implementation.
    """
    return chunks_for(length) * words_per_chunk(bits)


def storage_bytes(length: int, bits: int) -> int:
    """Bytes of word storage for one replica of the array."""
    return words_for(length, bits) * (WORD_BITS // 8)


def max_bits_needed(values: Iterable[int]) -> int:
    """Minimum bit width able to represent every value in ``values``.

    This implements the paper's policy that "the number of bits used per
    element is the minimum number of bits required to store the largest
    element in the array" (section 4.2).  An empty input needs 1 bit.
    """
    if not isinstance(values, np.ndarray):
        # Plain Python iterables: stay in arbitrary-precision ints so
        # values near 2**64 are not silently coerced to float64.
        items = list(values)
        if not items:
            return 1
        if not all(isinstance(v, (int, np.integer)) for v in items):
            raise TypeError("values must be integers")
        lo, top = min(items), max(items)
        if lo < 0:
            raise ValueOverflowError(int(lo), 0)
        return max(1, int(top).bit_length())
    arr = values
    if arr.size == 0:
        return 1
    if arr.dtype.kind not in "ui":
        raise TypeError(f"values must be integers, got dtype {arr.dtype}")
    if arr.dtype.kind == "i" and int(arr.min()) < 0:
        raise ValueOverflowError(int(arr.min()), 0)
    top = int(arr.max())
    return max(1, top.bit_length())


def check_value(value: int, bits: int) -> int:
    """Validate that ``value`` fits in ``bits`` bits; return it as int."""
    value = int(value)
    if value < 0 or value.bit_length() > bits:
        raise ValueOverflowError(value, bits)
    return value


# ---------------------------------------------------------------------------
# Scalar reference kernels (paper Functions 1-3)
# ---------------------------------------------------------------------------


def get_scalar(words, index: int, bits: int) -> int:
    """Read element ``index`` from a packed word buffer (paper Function 1).

    ``words`` is any integer-indexable sequence of 64-bit word values
    (a NumPy ``uint64`` array in practice).  Following the paper's
    pseudocode line by line::

        chunk        <- index / 64
        wordsPerChunk<- BITS
        chunkStart   <- chunk * wordsPerChunk
        bitInChunk   <- (index % 64) * BITS
        bitInWord    <- bitInChunk % 64
        word         <- chunkStart + (bitInChunk / 64)
        mask         <- (1 << BITS) - 1
    """
    bits = check_bits(bits)
    chunk = index // CHUNK_ELEMENTS
    chunk_start = chunk * words_per_chunk(bits)
    bit_in_chunk = (index % CHUNK_ELEMENTS) * bits
    bit_in_word = bit_in_chunk % WORD_BITS
    word = chunk_start + (bit_in_chunk // WORD_BITS)
    mask = (1 << bits) - 1
    lo = int(words[word])
    if bit_in_word + bits <= WORD_BITS:
        return (lo >> bit_in_word) & mask
    hi = int(words[word + 1])
    return ((lo >> bit_in_word) | (hi << (WORD_BITS - bit_in_word))) & mask


def init_scalar(replicas, index: int, value: int, bits: int) -> None:
    """Write ``value`` at ``index`` into every replica (paper Function 2).

    ``replicas`` is a sequence of word buffers (NumPy ``uint64`` arrays);
    the paper writes each replica in turn (Function 2, line 3).  The
    write is read-modify-write on one or two words, so it is not
    thread-safe; the paper makes the same choice for read-only analytics
    (section 4.2) and so do we (see
    :meth:`repro.core.smart_array.SmartArray.init_locked` for the locked
    variant the paper sketches).
    """
    bits = check_bits(bits)
    value = check_value(value, bits)
    chunk = index // CHUNK_ELEMENTS
    chunk_start = chunk * words_per_chunk(bits)
    bit_in_chunk = (index % CHUNK_ELEMENTS) * bits
    bit_in_word = bit_in_chunk % WORD_BITS
    word = chunk_start + (bit_in_chunk // WORD_BITS)
    mask = (1 << bits) - 1
    word2 = chunk_start + ((bit_in_chunk + bits - 1) // WORD_BITS)
    lo_clear = ~(mask << bit_in_word) & _WORD_MASK
    lo_set = (value << bit_in_word) & _WORD_MASK
    for data in replicas:
        data[word] = np.uint64((int(data[word]) & lo_clear) | lo_set)
        if word2 != word:
            hi_bits = bits - (WORD_BITS - bit_in_word)
            hi_clear = ~((1 << hi_bits) - 1) & _WORD_MASK
            hi_set = value >> (WORD_BITS - bit_in_word)
            data[word2] = np.uint64((int(data[word2]) & hi_clear) | hi_set)


def unpack_chunk_scalar(words, chunk: int, bits: int, out=None):
    """Unpack one whole 64-element chunk (paper Function 3).

    Returns ``out`` (a 64-element ``uint64`` array), newly allocated when
    not supplied.  This is the kernel the compressed iterator uses to
    amortize decompression across a chunk (section 4.3).
    """
    bits = check_bits(bits)
    if out is None:
        out = np.empty(CHUNK_ELEMENTS, dtype=np.uint64)
    chunk_start = chunk * words_per_chunk(bits)
    word = chunk_start
    value = int(words[word])
    bit_in_word = 0
    mask = (1 << bits) - 1
    for i in range(CHUNK_ELEMENTS):
        if bit_in_word + bits < WORD_BITS:
            out[i] = (value >> bit_in_word) & mask
            bit_in_word += bits
        elif bit_in_word + bits == WORD_BITS:
            out[i] = (value >> bit_in_word) & mask
            bit_in_word = 0
            word += 1
            if i + 1 < CHUNK_ELEMENTS:
                value = int(words[word])
        else:
            next_word = word + 1
            next_value = int(words[next_word])
            out[i] = mask & ((value >> bit_in_word) | (next_value << (WORD_BITS - bit_in_word)) & _WORD_MASK)
            bit_in_word = (bit_in_word + bits) - WORD_BITS
            word = next_word
            value = next_value
    return out


# ---------------------------------------------------------------------------
# Vectorized kernels
# ---------------------------------------------------------------------------


def _positions(indices: np.ndarray, bits: int):
    """Word index, bit offset, and spill mask for each element index."""
    chunk = indices // CHUNK_ELEMENTS
    bit_in_chunk = (indices % CHUNK_ELEMENTS) * bits
    word = chunk * bits + bit_in_chunk // WORD_BITS
    bit_in_word = bit_in_chunk % WORD_BITS
    spills = bit_in_word + bits > WORD_BITS
    return word.astype(np.int64), bit_in_word.astype(np.uint64), spills


def pack_array(values, bits: int) -> np.ndarray:
    """Pack ``values`` into a fresh word buffer (vectorized Function 2).

    Equivalent to calling :func:`init_scalar` for every index on a
    zeroed buffer, but runs as a handful of NumPy ufunc passes; inputs
    above one superchunk dispatch to the byte-period kernel
    (:func:`repro.core.bitpack_fast.pack_words_blocked`), the way
    :func:`unpack_array` does.  Raises :class:`ValueOverflowError` if
    any value does not fit.
    """
    bits = check_bits(bits)
    values = np.ascontiguousarray(values, dtype=np.uint64)
    n = values.size
    if n > _SCATTER_PACK_MAX:
        from . import bitpack_fast

        return bitpack_fast.pack_words_blocked(values, bits)
    words = np.zeros(words_for(n, bits), dtype=np.uint64)
    if n == 0:
        return words
    if bits < WORD_BITS and int(values.max()) >> bits:
        bad = values[(values >> np.uint64(bits)) != 0][0]
        raise ValueOverflowError(int(bad), bits)
    if bits == WORD_BITS:
        words[:n] = values
        return words
    indices = np.arange(n, dtype=np.int64)
    word, bit_in_word, spills = _positions(indices, bits)
    np.bitwise_or.at(words, word, values << bit_in_word)
    if spills.any():
        sv = values[spills]
        so = bit_in_word[spills]
        np.bitwise_or.at(words, word[spills] + 1, sv >> (np.uint64(WORD_BITS) - so))
    return words


def unpack_array(words: np.ndarray, length: int, bits: int) -> np.ndarray:
    """Unpack the first ``length`` elements from ``words`` (vectorized).

    Equivalent to running :func:`unpack_chunk_scalar` over every chunk
    and concatenating, truncated to ``length``.  Dispatches to the
    all-width blocked kernel (:mod:`repro.core.bitpack_fast`), which
    exploits the chunk alignment property instead of per-element index
    arithmetic; the :func:`gather` path remains for true random access.
    """
    bits = check_bits(bits)
    if length == 0:
        return np.empty(0, dtype=np.uint64)
    from . import bitpack_fast

    return bitpack_fast.unpack_words_blocked(words, length, bits)


def gather(words: np.ndarray, indices, bits: int) -> np.ndarray:
    """Vectorized random-access read of many elements (Function 1 in bulk)."""
    bits = check_bits(bits)
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    if bits == WORD_BITS:
        return words[indices]
    word, bit_in_word, spills = _positions(indices, bits)
    mask = np.uint64((1 << bits) - 1)
    out = (words[word] >> bit_in_word) & mask
    if spills.any():
        so = bit_in_word[spills]
        hi = words[word[spills] + 1] << (np.uint64(WORD_BITS) - so)
        out[spills] = ((words[word[spills]] >> so) | hi) & mask
    return out


def scatter(words: np.ndarray, indices, values, bits: int) -> None:
    """Vectorized write of many elements into an existing buffer.

    ``indices`` must not contain duplicates (matching the paper's
    unsynchronized Function 2, concurrent writes to one element are the
    caller's responsibility).  Unlike :func:`pack_array` this preserves
    the other elements already stored in ``words``.
    """
    bits = check_bits(bits)
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    values = np.ascontiguousarray(values, dtype=np.uint64)
    if values.shape != indices.shape:
        raise ValueError("indices and values must have matching shapes")
    if values.size == 0:
        return
    if bits < WORD_BITS and (values >> np.uint64(bits)).any():
        bad = values[(values >> np.uint64(bits)) != 0][0]
        raise ValueOverflowError(int(bad), bits)
    if bits == WORD_BITS:
        words[indices] = values
        return
    if indices.size > 1 and not (indices[1:] > indices[:-1]).all():
        order = np.argsort(indices)
        indices, values = indices[order], values[order]
    # Each element's slot: its first word and the word holding its last
    # bit (the same word unless the slot spills), with the clear and set
    # masks it puts there; a slot that does not spill puts empty masks
    # in its second entry.  In index order the words never decrease.
    # (Shifts and masks: 64 elements per chunk, 64 bits per word.)
    bit_in_chunk = (indices & 63) * bits
    chunk_start = (indices >> 6) * bits
    word = np.empty((indices.size, 2), dtype=np.int64)
    np.add(chunk_start, bit_in_chunk >> 6, out=word[:, 0])
    np.add(chunk_start, (bit_in_chunk + bits - 1) >> 6, out=word[:, 1])
    bit_in_word = (bit_in_chunk & 63).astype(np.uint64)
    # Shifting a value below 2**63 right by 63 leaves 0, as a shift by
    # the 64 bits a slot at bit 0 would need must.
    spill_shift = np.minimum(np.uint64(WORD_BITS) - bit_in_word,
                             np.uint64(WORD_BITS - 1))
    mask = np.uint64((1 << bits) - 1)
    masks = np.empty((indices.size, 2, 2), dtype=np.uint64)
    np.left_shift(mask, bit_in_word, out=masks[:, 0, 0])
    np.right_shift(mask, spill_shift, out=masks[:, 1, 0])
    np.left_shift(values, bit_in_word, out=masks[:, 0, 1])
    np.right_shift(values, spill_shift, out=masks[:, 1, 1])
    word, masks = word.ravel(), masks.reshape(-1, 2)
    # Adjacent elements share words: merge the (clear, set) masks per
    # word, then store each word once, so a reader sees a word's old
    # value or its new one, never a cleared slot.
    starts = np.flatnonzero(np.concatenate(([True], word[1:] != word[:-1])))
    word = word[starts]
    clear, put = np.bitwise_or.reduceat(masks, starts, axis=0).T
    words[word] = (words[word] & ~clear) | put


def exact_sum(values: np.ndarray) -> int:
    """Exact integer sum of a uint64 array.

    A plain ``values.sum()`` wraps modulo 2**64.  Summing the 32-bit
    halves separately keeps every partial sum below 2**52 for batches up
    to 2**20 elements, so the arithmetic stays exact without falling
    back to slow object-dtype reduction.
    """
    if values.size == 0:
        return 0
    if values.size >= 1 << 20:
        half = values.size // 2
        return exact_sum(values[:half]) + exact_sum(values[half:])
    hi = int((values >> np.uint64(32)).sum(dtype=np.uint64))
    lo = int((values & np.uint64(0xFFFFFFFF)).sum(dtype=np.uint64))
    return (hi << 32) + lo


def check_index(index: int, length: int) -> int:
    """Bounds-check an element index against ``length``."""
    index = int(index)
    if index < 0 or index >= length:
        raise IndexOutOfRangeError(index, length)
    return index
