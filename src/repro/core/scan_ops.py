"""Selection scans over smart arrays (column-store predicate evaluation).

The paper situates bit compression among column-store scan techniques
(sections 4.2 and 8, citing SIMD selection-scan work).  This module
provides the whole-column scan operators an analytics engine runs over
compressed columns:

* :func:`count_in_range` / :func:`select_in_range` — range predicates;
* :func:`count_equal` — equality;
* :func:`min_max` — a fused min/max.

There is one scan engine.  A bit-packed column is scanned by a
one-column query on the morsel executor (:mod:`repro.query`): the
column's own zone map prunes and answers covered chunks from its
synopses, and the native fused scans run where they apply.  A column
whose generation is *encoded* (see :mod:`repro.core.codecs`) is
answered in the encoded domain instead — dictionary-order code ranges,
run-level pruning, frame min/max — which beats decoding it.

Range predicates accept arbitrary Python integers for ``lo``/``hi`` and
clamp them to the ``uint64`` storage domain (see
:func:`clamp_u64_range`): ``lo`` below 0 behaves as 0, ``hi`` above
``2**64`` behaves as "unbounded above", and ranges empty after clamping
(including ``lo > 2**64 - 1``) match nothing.  The operators never
overflow on out-of-domain bounds.

A pooled scan is the same one-column query run with ``pool=``, e.g.
``Query(SmartTable({"v": a})).where(in_range("v", lo, hi)).count()
.run(pool=pool)``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .codecs import (encoded_count_equal, encoded_count_in_range,
                     encoded_min_max, encoded_select_in_range)
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


def _scan(name: str, array: SmartArray, encoded, run):
    """Scan ``name`` over ``array``: ``encoded(gen)`` on the pinned
    generation when it is encoded, else ``run(query, v)`` on a serial
    one-column query ``query`` over ``array`` as column ``v``.

    The pin keeps (codec, meta, buffers) one consistent snapshot if a
    live migration swaps the array mid-call; the query pins each
    morsel's generation itself.
    """
    gen = array.pin_generation()
    try:
        if gen.codec != "bitpack":
            with trace(name, array=array.stats.array_label,
                       codec=gen.codec):
                return encoded(gen)
    finally:
        gen.unpin()
    from ..query import Query, col
    from .table import SmartTable

    with trace(name, array=array.stats.array_label):
        return run(Query(SmartTable({"v": array})), col("v"))


def select_in_range(array: SmartArray, lo: int, hi: int) -> np.ndarray:
    """Indices with ``lo <= value < hi`` (the classic selection scan).

    Bounds clamp to the ``uint64`` domain (:func:`clamp_u64_range`):
    ``hi`` at or above ``2**64`` selects everything ``>= lo``.
    """
    bounds = clamp_u64_range(lo, hi)
    if bounds is None:
        return np.empty(0, dtype=np.int64)
    return _scan(
        "scan.select_in_range", array,
        lambda gen: encoded_select_in_range(gen, *bounds),
        lambda q, v: q.where((v >= lo) & (v < hi)).select().run().rows)


def count_in_range(array: SmartArray, lo: int, hi: int) -> int:
    """COUNT(*) WHERE lo <= value < hi, without materializing indices.

    Bounds clamp to the ``uint64`` domain (:func:`clamp_u64_range`).
    """
    bounds = clamp_u64_range(lo, hi)
    if bounds is None:
        return 0
    return _scan(
        "scan.count_in_range", array,
        lambda gen: encoded_count_in_range(gen, *bounds),
        lambda q, v: q.where((v >= lo) & (v < hi)).count().run().scalar())


def count_equal(array: SmartArray, value: int) -> int:
    """Occurrences of ``value`` in the array.

    Values outside the ``uint64`` domain (negative or above
    ``2**64 - 1``) cannot be stored, so they count 0 instead of
    overflowing on conversion.
    """
    if value < 0 or value > U64_MAX:
        return 0
    return _scan(
        "scan.count_equal", array,
        lambda gen: encoded_count_equal(gen, value),
        lambda q, v: q.where(v == value).count().run().scalar())


def min_max(array: SmartArray) -> Tuple[int, int]:
    """Fused ``(min, max)`` of the array's values."""
    if array.length == 0:
        raise ValueError("min_max of an empty array")
    return _scan(
        "scan.min_max", array, encoded_min_max,
        lambda q, v: tuple(q.min("v").max("v").run().aggregates.values()))
