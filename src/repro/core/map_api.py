"""Bounded map() API: the paper's proposed iterator alternative (§7).

The iterator API tests for a chunk boundary on every ``next()``, which
"generates a large number of branch stalls" (section 7).  The paper
plans "an alternative unified API for languages that support
user-defined lambdas ... a bounded map() interface accepting a lambda
and a range to apply it over", which removes those branches.

This module implements that future-work API on top of the bulk-span
scan engine.  Ranges are decoded a *superchunk* at a time — by default
:data:`SUPERCHUNK_ELEMENTS` (4096) elements, i.e. 64 chunks — through
one call into the blocked all-width kernel per step, so the Python loop
runs 64x fewer iterations than a chunk-at-a-time walk while the decode
itself stays chunk-aligned (superchunk boundaries are chunk
boundaries, and only the chunks covering the requested range are
decoded).

* :func:`iter_spans` — the span generator every bulk operator builds
  on: yields ``(global_start_index, decoded ndarray)`` pairs from a
  reused per-call buffer;
* :func:`map_range` — apply a function over ``[start, stop)`` and
  collect the results; the function receives whole decoded spans
  (NumPy arrays), so per-element branching disappears exactly as the
  paper envisions;
* :func:`map_reduce` — fused map + reduction without materializing the
  mapped values (the aggregation pattern);
* :func:`sum_range` — the aggregation special case, and the direct
  branch-free counterpart of the Function 4 iterator loop.

All of them honour replica selection the same way the iterator factory
does: pass ``socket`` to read the socket-local replica.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from . import bitpack
from .smart_array import SmartArray

#: Elements decoded per scan-engine step: 64 chunks.  Any multiple of
#: :data:`repro.core.bitpack.CHUNK_ELEMENTS` works; 4096 keeps the
#: reused decode buffer comfortably inside L2 at every bit width while
#: cutting the Python loop count by 64x versus chunk-at-a-time.
SUPERCHUNK_ELEMENTS = 4096


def check_superchunk(superchunk: Optional[int]) -> int:
    """Validate a superchunk size (elements); ``None`` means default."""
    if superchunk is None:
        return SUPERCHUNK_ELEMENTS
    superchunk = int(superchunk)
    if superchunk < bitpack.CHUNK_ELEMENTS or (
        superchunk % bitpack.CHUNK_ELEMENTS
    ):
        raise ValueError(
            f"superchunk must be a positive multiple of "
            f"{bitpack.CHUNK_ELEMENTS}, got {superchunk}"
        )
    return superchunk


def iter_spans(
    array: SmartArray,
    start: int = 0,
    stop: Optional[int] = None,
    socket: int = 0,
    superchunk: Optional[int] = None,
) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield ``(global_start_index, decoded ndarray)`` spans covering
    ``[start, stop)``.

    Spans are superchunk-aligned internally: each step decodes the
    chunks of one superchunk window that intersect the range, in a
    single blocked-kernel call, into a buffer reused across steps.  The
    yielded span is a *view* into that buffer — consume or copy it
    before advancing.
    """
    stop = array.length if stop is None else stop
    if not 0 <= start <= stop <= array.length:
        raise IndexError(
            f"range [{start}, {stop}) invalid for length {array.length}"
        )
    step = check_superchunk(superchunk)
    # Pin the storage generation for the whole iteration: every span of
    # one scan decodes the same snapshot even if a live migration swaps
    # the array's storage mid-scan (decode_chunks resolves the pinned
    # buffer to its own generation's bit width).
    if hasattr(array, "pin_generation"):
        gen = array.pin_generation()
        replica = gen.buffer_for_socket(socket)
    else:
        gen = None
        replica = array.get_replica(socket)
    try:
        buf = np.empty(step, dtype=np.uint64)
        pos = start
        while pos < stop:
            window_start = (pos // step) * step
            window_stop = min(window_start + step, stop)
            first_chunk = pos // bitpack.CHUNK_ELEMENTS
            end_chunk = -(-window_stop // bitpack.CHUNK_ELEMENTS)
            decoded = array.decode_chunks(
                first_chunk, end_chunk - first_chunk, replica=replica,
                out=buf
            )
            base = first_chunk * bitpack.CHUNK_ELEMENTS
            yield pos, decoded[pos - base:window_stop - base]
            pos = window_stop
    finally:
        if gen is not None:
            gen.unpin()


def map_range(
    array: SmartArray,
    fn: Callable[[np.ndarray], np.ndarray],
    start: int = 0,
    stop: Optional[int] = None,
    socket: int = 0,
    superchunk: Optional[int] = None,
) -> np.ndarray:
    """Apply ``fn`` over decoded spans of ``[start, stop)``; concatenate.

    ``fn`` receives a ``uint64`` array (one superchunk span at a time)
    and must return an equal-length array; the spans are concatenated in
    order.  This is the paper's bounded map(): the span-boundary test
    runs once per superchunk instead of once per element.
    """
    stop = array.length if stop is None else stop
    pieces: List[np.ndarray] = []
    for _, span in iter_spans(array, start, stop, socket, superchunk):
        out = np.asarray(fn(span))
        if out.shape != span.shape:
            raise ValueError(
                f"map function changed the span length "
                f"({span.size} -> {out.size})"
            )
        pieces.append(out.copy())
    if not pieces:
        return np.empty(0, dtype=np.uint64)
    return np.concatenate(pieces)


def map_reduce(
    array: SmartArray,
    map_fn: Callable[[np.ndarray], np.ndarray],
    reduce_fn: Callable[[object, np.ndarray], object],
    initial,
    start: int = 0,
    stop: Optional[int] = None,
    socket: int = 0,
    superchunk: Optional[int] = None,
):
    """Fused map + fold over ``[start, stop)`` without materializing."""
    stop = array.length if stop is None else stop
    acc = initial
    for _, span in iter_spans(array, start, stop, socket, superchunk):
        acc = reduce_fn(acc, np.asarray(map_fn(span)))
    return acc


def sum_range(
    array: SmartArray,
    start: int = 0,
    stop: Optional[int] = None,
    socket: int = 0,
    superchunk: Optional[int] = None,
) -> int:
    """Exact-integer aggregation over a range — the branch-free
    counterpart of the Function 4 iterator loop."""
    from ..obs.trace import trace

    with trace("scan.sum_range", array=array.stats.array_label,
               socket=socket):
        return map_reduce(
            array,
            lambda span: span,
            lambda acc, span: acc + bitpack.exact_sum(span),
            0,
            start=start,
            stop=stop,
            socket=socket,
            superchunk=superchunk,
        )
