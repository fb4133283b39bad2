"""Width specialization: the GraalVM profiling trick, in Python terms.

The paper's Java thin API reads the bit width once
(``GraalVM.profile(smartArray.getBits())``) so the JIT treats it as a
compile-time constant, folds the entry-point branch away, and inlines
the right subclass's code (section 4.3, Function 4).

CPython has no JIT to partially evaluate, but the same idea applies at
the closure level: :func:`specialized_getter` / :func:`specialized_scan`
evaluate everything width-dependent **once** — masks, words-per-chunk,
the dispatch to the 32/64-bit fast paths — and return a closure whose
body contains only the residual per-access work.  This removes the
attribute lookups, width checks, and branch re-evaluation a generic
``get()`` performs per call, which is the honest Python analogue of the
virtual-dispatch and branching overheads the paper removes.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..core import bitpack
from ..core.smart_array import SmartArray

GetterFn = Callable[[int], int]
ScanFn = Callable[[int, int], int]


def specialized_getter(array: SmartArray, socket: int = 0) -> GetterFn:
    """A ``get(index) -> value`` closure with the width baked in.

    Equivalent to ``array.get(index, replica)`` for every index, but
    with all width-dependent constants pre-evaluated — the profiled
    fast path of the paper's Java thin API.
    """
    bits = array.bits
    replica = array.get_replica(socket)
    length = array.length

    if bits == 64:
        def get64(index: int) -> int:
            if not 0 <= index < length:
                raise IndexError(index)
            return int(replica[index])

        return get64

    if bits == 32:
        data32 = replica.view(np.uint32)

        def get32(index: int) -> int:
            if not 0 <= index < length:
                raise IndexError(index)
            return int(data32[index])

        return get32

    mask = (1 << bits) - 1
    word_bits = bitpack.WORD_BITS

    def get_packed(index: int) -> int:
        if not 0 <= index < length:
            raise IndexError(index)
        bit_in_chunk = (index % 64) * bits
        word = (index // 64) * bits + bit_in_chunk // word_bits
        bit_in_word = bit_in_chunk % word_bits
        lo = int(replica[word])
        if bit_in_word + bits <= word_bits:
            return (lo >> bit_in_word) & mask
        hi = int(replica[word + 1])
        return ((lo >> bit_in_word) | (hi << (word_bits - bit_in_word))) & mask

    return get_packed


def specialized_scan(array: SmartArray, socket: int = 0) -> ScanFn:
    """A ``scan(start, stop) -> sum`` closure with the width baked in.

    The aggregation inner loop after "compilation": for 64-bit data it
    degenerates to a pointer walk (the paper: "compiled code simply
    increases a pointer at every iteration"), for packed widths it
    unpacks chunk buffers without re-checking the width.
    """
    bits = array.bits
    replica = array.get_replica(socket)
    length = array.length

    def check(start: int, stop: int) -> None:
        if not 0 <= start <= stop <= length:
            raise IndexError((start, stop))

    if bits == 64:
        def scan64(start: int, stop: int) -> int:
            check(start, stop)
            return bitpack.exact_sum(replica[start:stop])

        return scan64

    if bits == 32:
        data32 = replica.view(np.uint32)

        def scan32(start: int, stop: int) -> int:
            check(start, stop)
            return int(data32[start:stop].sum(dtype=np.uint64))

        return scan32

    unpack = array.unpack
    buf = np.empty(bitpack.CHUNK_ELEMENTS, dtype=np.uint64)

    def scan_packed(start: int, stop: int) -> int:
        check(start, stop)
        total = 0
        pos = start
        while pos < stop:
            chunk = pos // 64
            lo = pos - chunk * 64
            hi = min(stop - chunk * 64, 64)
            unpack(chunk, replica=replica, out=buf)
            total += bitpack.exact_sum(buf[lo:hi])
            pos = chunk * 64 + hi
        return total

    return scan_packed
