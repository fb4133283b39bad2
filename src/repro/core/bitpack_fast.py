"""Blocked (SIMD-analogue) bulk pack/unpack kernels for *all* bit widths.

The paper's related work applies SIMD to bit-compressed scans (Willhalm
et al., Polychroniou & Ross — section 8).  NumPy's vectorized ufuncs are
this repo's SIMD analogue.  Unpack (paper Function 3) and bulk pack
(Function 2 over a whole array) are **one byte-period layout** driven in
two directions, specialized on a single axis, the width.

Packed data is one little-endian bit stream: element ``i`` starts at bit
``i * bits``.  With ``g = gcd(bits, 8)`` the layout repeats every
``bits / g`` bytes, and one such *period* holds ``8 / g`` elements::

    g = 1  odd widths          period = bits bytes      8 elements
    g = 2  2, 6, 10, ... 62    period = bits / 2 bytes  4 elements
    g = 4  4, 12, 20, ... 60   period = bits / 4 bytes  2 elements
    g = 8  8, 16, 24, ... 64   period = bits / 8 bytes  1 element

Element ``j`` of *every* period starts at byte ``(j * bits) // 8``, bit
``(j * bits) % 8``, so a decode is ``8 / g <= 8`` passes whatever the
width: one strided load of the narrowest of u8/u16/u32/u64 covering
``bit + bits`` bits, one shift, one mask, written to column ``j`` of the
output viewed as ``(n_periods, 8 / g)``.  A shift by 0 or a mask that
keeps the whole load is skipped, which is how 8/16/32/64-bit collapse to
a single widening copy.  In the 58-63-bit range some lanes span more
than 64 bits (59, 61, 62, 63 bits at their larger offsets): the low 64
come from the u64 load, the rest is ORed in from a ninth byte.

Loads are powers of two, so they may cover up to 3 bytes past the last
period.  The kernel never reads past the end of ``words``: when those
bytes do not exist the final chunk is decoded from a zero-padded copy —
decided against the whole buffer, not the requested range, so interior
morsels never pay it.  Work proceeds in ``_BLOCK_ELEMENTS`` blocks with
``out=`` ufunc arguments: no array-sized temporaries.

Pack is the same table read the other way (:func:`_pack_periods`): per
lane one left shift into a block-sized scratch of the load dtype and one
OR into the strided little-endian view the decode loads from; a lane
that spills ORs its top bits into the ninth byte, and a lane that owns
exactly its load's bytes (8/16/32/64 bits) is one narrowing copy.  The
stores reach as far past a period as the loads do, so a partial last
chunk, or a whole one whose stores would run off the buffer, is packed
from a zero-padded 64-element scratch into a spare-word buffer and
copied into place; every padding slot stays zero.

:func:`unpack_array_fast` is the single bulk-decode entry point;
:func:`unpack_chunk_range` is the superchunk kernel the scan engine
decodes through; :func:`pack_words_blocked` is the bulk encoder.  The
gather path remains only for true random access.  Tests assert
bit-identical results against the scalar reference kernels (paper
Functions 1-3) for every width 1..64.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

import numpy as np

from . import bitpack

#: Little-endian loads of the byte stream, narrowest first.
_LOADS = tuple(np.dtype(f"<u{size}") for size in (1, 2, 4, 8))
_BYTE, _WORD = _LOADS[0], _LOADS[-1]
#: Elements per block: the 512 KiB output block and its scratch stay
#: cache-resident across a period's passes.
_BLOCK_ELEMENTS = 1024 * bitpack.CHUNK_ELEMENTS


@lru_cache(maxsize=None)
def _byte_period(bits: int):
    """``(period_bytes, lanes, overread, layout)`` of the ``bits`` stream.

    ``layout`` has one ``(byte, load, shift, mask, spills)`` per lane:
    start byte within the period, load dtype, right shift and mask in
    that dtype (``None`` when a no-op) and whether the element runs into
    a ninth byte.  ``overread`` is how far past the last period the
    loads reach.
    """
    g = gcd(bits, 8)
    period, lanes = bits // g, 8 // g
    layout = []
    for lane in range(lanes):
        byte, bit = divmod(lane * bits, 8)
        span = bit + bits
        load = next(d for d in _LOADS if 8 * d.itemsize >= min(span, 64))
        shift = load.type(bit) if bit else None
        mask = None if span == 8 * load.itemsize else load.type((1 << bits) - 1)
        layout.append((byte, load, shift, mask, span > 64))
    overread = max(byte + load.itemsize + spills
                   for byte, load, _shift, _mask, spills in layout) - period
    return period, lanes, max(overread, 0), tuple(layout)


def _unpack_periods(raw: np.ndarray, start: int, grid: np.ndarray,
                    bits: int) -> None:
    """Fill ``grid`` (n_periods, lanes) from the bytes of ``raw`` at ``start``."""
    period, lanes, _overread, layout = _byte_period(bits)
    step = _BLOCK_ELEMENTS // lanes
    scratch = None
    for lo in range(0, len(grid), step):
        rows = grid[lo:lo + step]
        n = len(rows)
        for lane, (byte, load, shift, mask, spills) in enumerate(layout):
            at = start + lo * period + byte
            part = np.ndarray((n,), load, raw, at, (period,))
            dest = rows[:, lane]
            if shift is not None and mask is not None:
                # Two ops: shift into contiguous scratch of the load's
                # own width, then the mask widens it into ``dest``.
                if scratch is None:
                    scratch = np.empty((2, n), dtype=_WORD)
                part = np.right_shift(part, shift,
                                      out=scratch[0, :n].view(load)[:n])
                if spills:
                    ninth = np.ndarray((n,), _BYTE, raw, at + 8, (period,))
                    high = np.left_shift(ninth, np.uint64(64) - shift,
                                         out=scratch[1, :n])
                    np.bitwise_or(part, high, out=part)
            if mask is not None:
                np.bitwise_and(part, mask, out=dest)
            elif shift is not None:
                np.right_shift(part, shift, out=dest)
            else:
                np.copyto(dest, part)


def chunk_output(out, n_chunks: int) -> np.ndarray:
    """Flat ``uint64`` destination for ``n_chunks`` decoded chunks: a
    fresh array, or the head of a writeable 1-D ``uint64`` ``out`` (any
    other dtype would silently truncate the decoded values)."""
    n_elements = n_chunks * bitpack.CHUNK_ELEMENTS
    if out is None:
        return np.empty(n_elements, dtype=np.uint64)
    if out.dtype != np.uint64 or out.ndim != 1 or not out.flags.writeable:
        raise ValueError(
            "out must be a writeable 1-D uint64 array, got a "
            f"{'writeable' if out.flags.writeable else 'read-only'} "
            f"{out.ndim}-D {out.dtype} array"
        )
    if out.size < n_elements:
        raise ValueError(
            f"out buffer holds {out.size} elements, need {n_elements}"
        )
    return out[:n_elements]


def unpack_chunk_range(words: np.ndarray, chunk: int, n_chunks: int,
                       bits: int, out=None) -> np.ndarray:
    """Decode whole chunks ``[chunk, chunk + n_chunks)`` in one pass.

    Returns a flat ``uint64`` array of ``n_chunks * 64`` elements
    (written into ``out`` when supplied — a writeable 1-D ``uint64``
    array — which lets the superchunk scan loop reuse one buffer per
    step).  Elements past the array's logical length in a trailing
    partial chunk decode to whatever padding the word buffer holds;
    callers slice to the valid length.
    """
    bits = bitpack.check_bits(bits)
    if chunk < 0 or n_chunks < 0:
        raise ValueError("chunk and n_chunks must be non-negative")
    flat = chunk_output(out, n_chunks)
    if n_chunks == 0:
        return flat
    first, stop = chunk * bits, (chunk + n_chunks) * bits
    if words.size < stop:
        raise ValueError(
            f"word buffer too small for chunks [{chunk}, {chunk + n_chunks})"
        )
    if words.dtype != _WORD or not words.flags.c_contiguous:
        # Big-endian host or strided input: one little-endian copy.
        words = np.ascontiguousarray(words[first:stop], dtype=_WORD)
        first, stop = 0, stop - first
    _period, lanes, overread, _layout = _byte_period(bits)
    grid = flat.reshape(-1, lanes)
    if stop * 8 + overread > words.nbytes:
        # The widest load would run off the buffer: decode the final
        # chunk from a padded copy instead.
        tail = np.zeros(bits + 1, dtype=_WORD)
        tail[:bits] = words[stop - bits:stop]
        body = len(grid) - bitpack.CHUNK_ELEMENTS // lanes
        _unpack_periods(tail.view(np.uint8), 0, grid[body:], bits)
        grid = grid[:body]
    _unpack_periods(words.view(np.uint8), first * 8, grid, bits)
    return flat


def unpack_words_blocked(words: np.ndarray, length: int,
                         bits: int) -> np.ndarray:
    """Unpack the first ``length`` elements, any width 1..64.

    ``words`` must cover whole chunks, as produced by
    :func:`repro.core.bitpack.words_for` sizing.
    """
    n_chunks = bitpack.chunks_for(length)
    return unpack_chunk_range(words, 0, n_chunks, bits)[:length]


def unpack_array_fast(words: np.ndarray, length: int, bits: int) -> np.ndarray:
    """The single bulk-decode entry point: blocked for every width."""
    return unpack_words_blocked(words, length, bits)


def _pack_periods(grid: np.ndarray, raw: np.ndarray, period: int,
                  layout) -> None:
    """OR ``grid`` (n_periods, lanes) into the zeroed bytes ``raw``: the
    store side of :func:`_unpack_periods`, lane by lane through the same
    ``layout``."""
    step = _BLOCK_ELEMENTS // len(layout)
    scratch = None
    for lo in range(0, len(grid), step):
        rows = grid[lo:lo + step]
        n = len(rows)
        for lane, (byte, load, shift, mask, spills) in enumerate(layout):
            at = lo * period + byte
            dest = np.ndarray((n,), load, raw, at, (period,))
            src = rows[:, lane]
            if shift is None and mask is None:
                # The element owns exactly the load's bytes: one copy.
                np.copyto(dest, src, casting="unsafe")
                continue
            if scratch is None:
                scratch = np.empty(n, dtype=_WORD)
            part = scratch.view(load)[:n]
            if shift is None:
                np.copyto(part, src, casting="unsafe")
            else:
                np.left_shift(src, _WORD.type(shift), out=part,
                              casting="unsafe")
            np.bitwise_or(dest, part, out=dest)
            if spills:
                # The element's top bits run into a ninth byte.
                ninth = np.ndarray((n,), _BYTE, raw, at + 8, (period,))
                high = scratch.view(_BYTE)[:n]
                np.right_shift(src, np.uint64(64) - _WORD.type(shift),
                               out=high, casting="unsafe")
                np.bitwise_or(ninth, high, out=ninth)


def pack_words_blocked(values: np.ndarray, bits: int) -> np.ndarray:
    """Pack ``values`` into ``words_for(n, bits)`` words, any width.

    The inverse of :func:`unpack_chunk_range`, driven by the same
    :func:`_byte_period` table: per lane one shift into a block-sized
    scratch and one OR into a strided little-endian view of the lane's
    load dtype (a single copy for 8/16/32/64 bits), plus a ninth-byte
    OR for lanes that spill past 64 bits.  Whole chunks are packed in
    place; a partial last chunk, or a whole one whose stores would run
    off the buffer, is packed from a zero-padded 64-element scratch.  The
    result owns its memory, holds zeros in every padding slot and is
    bit-identical to repeated paper Function 2 writes on a zeroed
    buffer.  :func:`repro.core.bitpack.pack_array` dispatches here above
    one superchunk.
    """
    bits = bitpack.check_bits(bits)
    values = np.ascontiguousarray(values, dtype=np.uint64)
    n = values.size
    words = np.zeros(bitpack.words_for(n, bits), dtype=_WORD)
    if n == 0:
        return words.astype(np.uint64, copy=False)
    if bits < bitpack.WORD_BITS and int(values.max()) >> bits:
        bad = values[(values >> np.uint64(bits)) != 0][0]
        raise bitpack.ValueOverflowError(int(bad), bits)
    period, lanes, overread, layout = _byte_period(bits)
    body = n - n % bitpack.CHUNK_ELEMENTS
    if overread and body == n:
        # The stores reach past the last period: keep them on the buffer.
        body -= bitpack.CHUNK_ELEMENTS
    _pack_periods(values[:body].reshape(-1, lanes), words.view(_BYTE),
                  period, layout)
    if body < n:
        last = np.zeros(bitpack.CHUNK_ELEMENTS, dtype=np.uint64)
        last[:n - body] = values[body:]
        tail = np.zeros(bits + 1, dtype=_WORD)
        _pack_periods(last.reshape(-1, lanes), tail.view(_BYTE), period,
                      layout)
        words[words.size - bits:] = tail[:bits]
    # Built little-endian: a big-endian host swaps once, here.
    return words.astype(np.uint64, copy=False)
