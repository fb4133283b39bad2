"""Selection scans over smart arrays (column-store predicate evaluation).

The paper situates bit compression among column-store scan techniques
(sections 4.2 and 8, citing SIMD selection-scan work).  This module
provides the scan operators an analytics engine runs over compressed
columns, all span-at-a-time over superchunk-decoded spans (so they
inherit the bulk-span engine's amortization — one blocked-kernel call
per 64 chunks — and honour replica selection):

* :func:`count_in_range` / :func:`select_in_range` — range predicates;
* :func:`count_equal` / :func:`select_where` — equality and arbitrary
  vectorized predicates;
* :func:`min_max` — a fused min/max pass (zone-map construction).

Range predicates accept arbitrary Python integers for ``lo``/``hi`` and
clamp them to the ``uint64`` storage domain (see
:func:`clamp_u64_range`): ``lo`` below 0 behaves as 0, ``hi`` above
``2**64`` behaves as "unbounded above", and ranges empty after clamping
(including ``lo > 2**64 - 1``) match nothing.  The operators never
overflow on out-of-domain bounds.

Full-array scans over an *encoded* generation (see
:mod:`repro.core.codecs`) dispatch to encoded-domain evaluation —
dictionary-order code ranges, run-level pruning, frame min/max — and
decode nothing; partial scans fall back to the generic span path, which
is codec-aware through ``decode_chunks``.

Socket-parallel versions of these operators live in
:mod:`repro.runtime.parallel_scans`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, List, Optional, Tuple

import numpy as np

from .map_api import for_each_chunk, iter_spans
from .smart_array import SmartArray
from ..obs.trace import trace

#: Largest value a smart array can store (elements are 64-bit words).
U64_MAX = (1 << 64) - 1


@lru_cache(maxsize=64)
def clamp_u64_range(lo: int, hi: int) -> Optional[Tuple[np.uint64,
                                                        Optional[np.uint64]]]:
    """Clamp the half-open predicate range ``[lo, hi)`` to ``uint64``.

    Returns ``None`` when no storable value can match — ``hi <= 0``,
    ``lo >= hi``, or ``lo`` above :data:`U64_MAX` — otherwise
    ``(lo64, hi64)`` where ``hi64 is None`` means the range is
    unbounded above (``hi > 2**64 - 1`` admits every value ``>= lo``).
    Converting unclamped bounds with ``np.uint64`` would raise
    ``OverflowError`` beyond the 64-bit boundary; every range operator
    goes through this helper instead.

    Memoized (the result is an immutable pair of scalars): a planner
    clamps each range leaf twice in a row, for its candidate and its
    covered chunks.
    """
    if hi <= 0 or lo >= hi:
        return None
    lo = int(lo)
    if lo > U64_MAX:
        return None
    hi64 = None if int(hi) > U64_MAX else np.uint64(hi)
    return np.uint64(lo if lo > 0 else 0), hi64


def _range_mask(span: np.ndarray, lo64: np.uint64,
                hi64: Optional[np.uint64]) -> np.ndarray:
    if hi64 is None:
        return span >= lo64
    return (span >= lo64) & (span < hi64)


def _pin_encoded(array: SmartArray, start: int, stop: int):
    """Pin the active generation when a full-array scan can run in the
    encoded domain; return the pinned generation or None.

    Encoded evaluation covers the whole column (the codec's summary
    structures — dictionary order, run table, frame min/max — describe
    the full array, not a sub-range), so partial scans fall through to
    the generic span-decode path, which is codec-aware via
    ``decode_chunks``.  The pin keeps (codec, meta, buffers) a
    consistent snapshot if a live migration swaps the array mid-call;
    the caller must unpin.
    """
    if start != 0 or stop != array.length:
        return None
    gen = array.pin_generation()
    if getattr(gen, "codec", "bitpack") == "bitpack":
        gen.unpin()
        return None
    return gen


def select_where(
    array: SmartArray,
    predicate: Callable[[np.ndarray], np.ndarray],
    start: int = 0,
    stop: Optional[int] = None,
    socket: int = 0,
    superchunk: Optional[int] = None,
) -> np.ndarray:
    """Indices in ``[start, stop)`` whose values satisfy ``predicate``.

    ``predicate`` receives decoded spans and must return a boolean array
    of the same length.
    """
    stop = array.length if stop is None else stop
    hits: List[np.ndarray] = []

    def visit(pos: int, span: np.ndarray) -> None:
        mask = np.asarray(predicate(span), dtype=bool)
        if mask.shape != span.shape:
            raise ValueError("predicate must return one bool per element")
        local = np.nonzero(mask)[0]
        if local.size:
            hits.append(local + pos)

    with trace("scan.select_where", array=array.stats.array_label,
               socket=socket):
        for_each_chunk(array, visit, start, stop, socket, superchunk)
        if not hits:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(hits)


def select_in_range(
    array: SmartArray,
    lo: int,
    hi: int,
    start: int = 0,
    stop: Optional[int] = None,
    socket: int = 0,
    superchunk: Optional[int] = None,
) -> np.ndarray:
    """Indices with ``lo <= value < hi`` (the classic selection scan).

    Bounds clamp to the ``uint64`` domain (:func:`clamp_u64_range`):
    ``hi`` at or above ``2**64`` selects everything ``>= lo``.
    """
    bounds = clamp_u64_range(lo, hi)
    if bounds is None:
        return np.empty(0, dtype=np.int64)
    lo64, hi64 = bounds
    stop_resolved = array.length if stop is None else stop
    gen = _pin_encoded(array, start, stop_resolved)
    if gen is not None:
        from .codecs import encoded_select_in_range

        try:
            with trace("scan.select_in_range",
                       array=array.stats.array_label, socket=socket,
                       codec=gen.codec):
                return encoded_select_in_range(gen, lo64, hi64)
        finally:
            gen.unpin()
    return select_where(
        array, lambda span: _range_mask(span, lo64, hi64), start, stop,
        socket, superchunk,
    )


def count_in_range(
    array: SmartArray,
    lo: int,
    hi: int,
    start: int = 0,
    stop: Optional[int] = None,
    socket: int = 0,
    superchunk: Optional[int] = None,
) -> int:
    """COUNT(*) WHERE lo <= value < hi, without materializing indices.

    Bounds clamp to the ``uint64`` domain (:func:`clamp_u64_range`).
    """
    bounds = clamp_u64_range(lo, hi)
    if bounds is None:
        return 0
    lo64, hi64 = bounds
    stop = array.length if stop is None else stop
    gen = _pin_encoded(array, start, stop)
    if gen is not None:
        from .codecs import encoded_count_in_range

        try:
            with trace("scan.count_in_range",
                       array=array.stats.array_label, socket=socket,
                       codec=gen.codec):
                return encoded_count_in_range(gen, lo64, hi64)
        finally:
            gen.unpin()
    total = 0
    with trace("scan.count_in_range", array=array.stats.array_label,
               socket=socket):
        for _, span in iter_spans(array, start, stop, socket, superchunk):
            total += int(_range_mask(span, lo64, hi64).sum())
    return total


def count_equal(
    array: SmartArray,
    value: int,
    socket: int = 0,
    superchunk: Optional[int] = None,
) -> int:
    """Occurrences of ``value`` in the whole array.

    Values outside the ``uint64`` domain (negative or above
    ``2**64 - 1``) cannot be stored, so they count 0 instead of
    overflowing on conversion.
    """
    if value < 0 or value > U64_MAX:
        return 0
    v = np.uint64(value)
    gen = _pin_encoded(array, 0, array.length)
    if gen is not None:
        from .codecs import encoded_count_equal

        try:
            with trace("scan.count_equal",
                       array=array.stats.array_label, socket=socket,
                       codec=gen.codec):
                return encoded_count_equal(gen, value)
        finally:
            gen.unpin()
    total = 0
    with trace("scan.count_equal", array=array.stats.array_label,
               socket=socket):
        for _, span in iter_spans(array, 0, array.length, socket,
                                  superchunk):
            total += int((span == v).sum())
    return total


def min_max(
    array: SmartArray,
    start: int = 0,
    stop: Optional[int] = None,
    socket: int = 0,
    superchunk: Optional[int] = None,
) -> Tuple[int, int]:
    """Fused min/max over a range (zone-map building block)."""
    stop = array.length if stop is None else stop
    if stop <= start:
        raise ValueError("min_max of an empty range")
    gen = _pin_encoded(array, start, stop)
    if gen is not None:
        from .codecs import encoded_min_max

        try:
            with trace("scan.min_max", array=array.stats.array_label,
                       socket=socket, codec=gen.codec):
                return encoded_min_max(gen)
        finally:
            gen.unpin()
    with trace("scan.min_max", array=array.stats.array_label,
               socket=socket):
        spans = iter_spans(array, start, stop, socket, superchunk)
        _, first = next(spans)
        lo, hi = int(first.min()), int(first.max())
        for _, span in spans:
            lo = min(lo, int(span.min()))
            hi = max(hi, int(span.max()))
        return lo, hi
