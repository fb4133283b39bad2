"""Array ops: writes, point and bulk reads, range scans, iterators,
the case array's zone map and pooled whole-array scans, each against
the oracle.

The codec profile's ``codec_*`` read ops are these same handlers: they
run the same reads on whichever layout (bit-packed, dict, rle, delta)
the array has at the time, with whole-array spans where the codec op
takes no range.  One rule covers the layouts' different decode work: a
whole-array count, select, ``count_equal`` or ``min_max`` on an encoded
array is answered from codec metadata and decodes zero chunks.
"""

from __future__ import annotations

import numpy as np

from ..core import scan_ops
from ..core.iterators import SmartArrayIterator
from ..core.map_api import sum_range
from ..core.table import SmartTable
from ..query import Query, in_range
from ..runtime.loops import parallel_sum_bulk
from . import oracle as orc
from .generator import gen_values
from .runner import Divergence


def _scan_chunks(r, start: int, stop: int, can_match: bool = True) -> int:
    """Chunks a span scan of ``[start, stop)`` decodes: none when its
    predicate cannot match, or when an encoded array answers the whole
    array from codec metadata."""
    if not can_match or (start == 0 and stop == r.spec.length
                         and r.encoded()):
        return 0
    return orc.span_chunks(start, stop, r.spec.superchunk)


# -- writes -----------------------------------------------------------------

def _fill(r, op, before) -> None:
    values = r.fit_current(gen_values(op.args[0], r.spec.length,
                                      r.spec.bits))
    r.array.fill(values)
    r.oracle.fill(values)
    r.check_stats(before, {"bulk_written": r.spec.length}, op.name)


def _write_one(r, op, before) -> None:
    """``init``, ``init_locked`` and ``setitem`` (negative indices too)."""
    idx, value = op.args
    value = r.fit_current(value)
    if op.name == "setitem":
        r.array[idx] = value
    else:
        getattr(r.array, op.name)(idx, value)
    r.oracle.set(idx, value)
    r.check_stats(before, {"inits": 1}, op.name)


def _write_slice(r, op, before) -> None:
    start, stop, step, last = op.args
    sl = slice(start, stop, step)
    idx = np.arange(*sl.indices(r.spec.length), dtype=np.int64)
    if op.name == "setitem_slice":
        values = gen_values(last, idx.size, r.spec.bits)
        r.array[sl] = values
    else:
        values = np.full(idx.size, np.uint64(last), dtype=np.uint64)
        r.array[sl] = last
    r.oracle.scatter(idx, values)
    r.check_stats(before, {"bulk_written": idx.size}, op.name)


def _scatter(r, op, before) -> None:
    vseed, k = op.args
    rng = np.random.default_rng(vseed)
    idx = rng.choice(r.spec.length, size=k, replace=False).astype(np.int64)
    values = r.fit_current(
        rng.integers(0, (1 << r.spec.bits) - 1, size=k, dtype=np.uint64,
                     endpoint=True))
    r.array.scatter_many(idx, values)
    r.oracle.scatter(idx, values)
    r.check_stats(before, {"bulk_written": k}, op.name)


# -- reads ------------------------------------------------------------------

def _get(r, op, before) -> None:
    idx = op.args[0]
    r.compare(r.array[idx], r.oracle.get(idx), op.name)
    r.check_stats(before, {"gets": 1}, op.name)


def _getitem_slice(r, op, before) -> None:
    sl = slice(*op.args)
    idx = np.arange(*sl.indices(r.spec.length), dtype=np.int64)
    r.compare(r.array[sl], r.oracle.gather(idx), op.name)
    r.check_stats(before, {"bulk_read": idx.size}, op.name)


def _gather(r, op, before) -> None:
    vseed, k = op.args
    rng = np.random.default_rng(vseed)
    idx = rng.choice(r.spec.length, size=k, replace=True).astype(np.int64)
    r.compare(r.array.gather_many(idx), r.oracle.gather(idx), op.name)
    r.check_stats(before, {"bulk_read": k}, op.name)


def _to_numpy(r, op, before) -> None:
    r.compare(r.array.to_numpy(), r.oracle.values, op.name)
    r.check_stats(before, {"bulk_read": r.spec.length,
                           "replica_reads": r.spec.length}, op.name)


def _decode_chunks(r, op, before) -> None:
    first, n = op.args
    decoded = r.array.decode_chunks(first, n)
    logical = r.oracle.values[first * 64:min(r.spec.length,
                                             (first + n) * 64)]
    r.compare(decoded[:logical.size], logical, op.name)
    r.check_decoded(before, n, op.name)


# -- scans ------------------------------------------------------------------

def _sum_range(r, op, before) -> None:
    # No encoded sum summary exists: sums decode spans through the
    # codec-aware blocked kernel in every layout.
    start, stop, socket = op.args
    actual = sum_range(r.array, start, stop, socket=socket,
                       superchunk=r.spec.superchunk)
    r.compare(actual, r.oracle.sum_range(start, stop), op.name)
    r.check_decoded(before, orc.span_chunks(start, stop, r.spec.superchunk),
                    op.name)


def _range_scan(r, op, before) -> None:
    """``count_in_range`` / ``select_in_range``; the codec twins scan
    the whole array."""
    lo, hi, *span, socket = op.args
    start, stop = span or (0, r.spec.length)
    name = op.name.replace("codec_", "")
    chunks = _scan_chunks(r, start, stop, orc.clamp_range(lo, hi) is not None)
    actual = getattr(scan_ops, name)(r.array, lo, hi, start, stop,
                                     socket=socket,
                                     superchunk=r.spec.superchunk)
    r.compare(actual, getattr(r.oracle, name)(lo, hi, start, stop),
              op.name)
    r.check_decoded(before, chunks, op.name)


def _count_equal(r, op, before) -> None:
    value, socket = op.args
    chunks = _scan_chunks(r, 0, r.spec.length, 0 <= value <= orc.U64_MAX)
    actual = scan_ops.count_equal(r.array, value, socket=socket,
                                  superchunk=r.spec.superchunk)
    r.compare(actual, r.oracle.count_equal(value), op.name)
    r.check_decoded(before, chunks, op.name)


def _select_mod(r, op, before) -> None:
    m, rem, start, stop, socket = op.args
    m64, r64 = np.uint64(m), np.uint64(rem)
    actual = scan_ops.select_where(
        r.array, lambda span: span % m64 == r64, start, stop,
        socket=socket, superchunk=r.spec.superchunk)
    r.compare(actual, r.oracle.select_mod(m, rem, start, stop), op.name)
    r.check_decoded(before, orc.span_chunks(start, stop, r.spec.superchunk),
                    op.name)


def _min_max(r, op, before) -> None:
    *span, socket = op.args
    start, stop = span or (0, r.spec.length)
    chunks = _scan_chunks(r, start, stop)
    actual = scan_ops.min_max(r.array, start, stop, socket=socket,
                              superchunk=r.spec.superchunk)
    r.compare(actual, r.oracle.min_max(start, stop), op.name)
    r.check_decoded(before, chunks, op.name)


# -- iterators --------------------------------------------------------------

def _iter_take(r, op, before) -> None:
    """``iter_take`` and ``take_then_get``."""
    start, n = op.args
    o = r.oracle
    it = SmartArrayIterator.allocate(r.array, start)
    taken = it.take(n)
    n_eff = max(0, min(n, r.spec.length - start))
    r.compare(taken, o.values[start:start + n_eff], op.name)
    if it.index != start + n_eff:
        raise Divergence(
            "result",
            f"{op.name}: iterator at {it.index}, expected {start + n_eff}")
    if op.name == "take_then_get":
        r.compare(it.get(), o.get(start + n_eff), "take_then_get.get")
    acct = o.take_accounting(start, n)
    r.check_stats(before, {"unpacks": acct["chunk_unpacks"],
                           "replica_reads": acct["replica_reads"]}, op.name)


def _iter_walk(r, op, before) -> None:
    start, k = op.args
    it = SmartArrayIterator.allocate(r.array, start)
    walked = np.empty(k, dtype=np.uint64)
    for j in range(k):
        walked[j] = it.get()
        it.next()
    r.compare(walked, r.oracle.values[start:start + k], op.name)
    r.check_stats(before, {"unpacks": r.oracle.walk_unpacks(start, k)},
                  op.name)


# -- zone maps and parallel scans -------------------------------------------

def _zonemap_op(r, op, before) -> None:
    """``zonemap_count`` / ``_select`` / ``_candidates`` (and the codec
    profile's ``codec_zonemap_count``) on the case array's zone map."""
    lo, hi = op.args
    o, sc = r.oracle, r.spec.superchunk
    name = op.name.replace("codec_", "")
    zm = r.array.zone_map
    if name == "zonemap_candidates":
        r.compare(zm.candidate_chunks(lo, hi), o.zonemap_candidates(lo, hi),
                  op.name)
        r.check_stats(before, {}, op.name)
        return
    count_only = name == "zonemap_count"
    if count_only:
        actual = zm.count_in_range(lo, hi, superchunk=sc)
        expected = o.count_in_range(lo, hi)
    else:
        actual = zm.select_in_range(lo, hi, superchunk=sc)
        expected = o.select_in_range(lo, hi)
    r.compare(actual, expected, op.name)
    r.check_decoded(before, o.zonemap_decoded_chunks(lo, hi, count_only,
                                                     sc), op.name)


def _parallel(r, op, before) -> None:
    """``parallel_sum`` / ``_min_max`` / ``_count`` / ``_select`` over the
    whole array on the case's pool: ``parallel_sum_bulk``, or a
    one-column query with one morsel per ``batch`` elements and pruning
    off.  Neither skips a range that cannot match, so each decodes
    every chunk once."""
    *bounds, batch = op.args
    o, n = r.oracle, r.spec.length
    if op.name == "parallel_sum":
        actual = parallel_sum_bulk(r.array, pool=r.pool(), batch=batch)
        expected = o.sum_range(0, n)
    else:
        q = Query(SmartTable({"v": r.array}))
        if bounds:
            q = q.where(in_range("v", *bounds))
        if op.name == "parallel_min_max":
            q, expected = q.min("v").max("v"), o.min_max(0, n)
        elif op.name == "parallel_count":
            q, expected = q.count(), (o.count_in_range(*bounds),)
        else:
            q, expected = q.select(), o.select_in_range(*bounds)
        result = q.run(pool=r.pool(), morsel=batch, prune="off")
        actual = (result.rows if result.kind == "rows"
                  else tuple(result.aggregates.values()))
    r.compare(actual, expected, op.name)
    r.check_decoded(before, orc.chunks_for(n), op.name)


HANDLERS = {
    "fill": _fill,
    "init": _write_one,
    "init_locked": _write_one,
    "setitem": _write_one,
    "setitem_slice": _write_slice,
    "setitem_slice_scalar": _write_slice,
    "scatter": _scatter,
    "get": _get,
    "getitem_slice": _getitem_slice,
    "gather": _gather,
    "to_numpy": _to_numpy,
    "decode_chunks": _decode_chunks,
    "sum_range": _sum_range,
    "count_in_range": _range_scan,
    "select_in_range": _range_scan,
    "count_equal": _count_equal,
    "select_mod": _select_mod,
    "min_max": _min_max,
    "iter_take": _iter_take,
    "take_then_get": _iter_take,
    "iter_walk": _iter_walk,
    "zonemap_count": _zonemap_op,
    "zonemap_select": _zonemap_op,
    "zonemap_candidates": _zonemap_op,
    "parallel_sum": _parallel,
    "parallel_min_max": _parallel,
    "parallel_count": _parallel,
    "parallel_select": _parallel,
    "codec_get": _get,
    "codec_gather": _gather,
    "codec_to_numpy": _to_numpy,
    "codec_decode_chunks": _decode_chunks,
    "codec_sum_range": _sum_range,
    "codec_count_in_range": _range_scan,
    "codec_select_in_range": _range_scan,
    "codec_count_equal": _count_equal,
    "codec_min_max": _min_max,
    "codec_zonemap_count": _zonemap_op,
}
