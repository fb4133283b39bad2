"""Plain-NumPy oracle for the differential fuzz harness (smartcheck).

The oracle keeps a smart array's logical contents as an ordinary
``uint64`` NumPy array and reimplements every checked operator with
nothing but NumPy and Python integers — no bit packing, no chunking, no
replicas.  Whatever the smart-array stack answers, the oracle answers
independently; the runner compares the two.

Besides values, the oracle predicts the *accounting* each operation must
leave behind in :class:`repro.core.stats.AccessStats` and the per-replica
read counters: how many logical chunk unpacks a superchunk-windowed scan
performs, how many elements the scan engine decodes, how many scalar
gets/inits an op issues.  These counts are deterministic even for
thread-pool parallel scans (dynamic claiming changes *which worker* runs
a batch, never the batch boundaries), which is what makes the
conservation invariant checkable under every pool mode.

For query ops, :func:`expected_result` computes a query's answer from
its declared shape over plain columns — the one expectation the query,
SQL and cluster ops all compare against.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

#: What one decode call is worth in chunks: a decode window (a scan's
#: superchunk, a query's morsel) decodes the hull of its runs when the
#: calls saved are worth more than the gap chunks decoded.
from ..core.zonemap import HULL_CALL_CHUNKS

CHUNK = 64
U64_MAX = (1 << 64) - 1

#: Widest values whose 64-element chunk sums fit a 64-bit word — the
#: widest column a zone map keeps chunk sums (synopses) for.
SUM_BITS = 58


def clamp_range(lo: int, hi: int) -> Optional[Tuple[int, Optional[int]]]:
    """Clamp ``[lo, hi)`` to the uint64 domain, as Python ints.

    ``None`` means the range matches nothing; a ``None`` upper bound
    means unbounded above.  Written against the *specified* semantics
    (docs/API.md), independently of :mod:`repro.core.scan_ops`.
    """
    if hi <= 0 or lo >= hi:
        return None
    lo = max(int(lo), 0)
    if lo > U64_MAX:
        return None
    return lo, (None if int(hi) > U64_MAX else int(hi))


def range_mask(values: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Rows of a plain ``uint64`` array with ``lo <= value < hi``, under
    :func:`clamp_range`'s semantics."""
    bounds = clamp_range(lo, hi)
    if bounds is None:
        return np.zeros(values.size, dtype=bool)
    lo, hi = bounds
    mask = values >= np.uint64(lo)
    if hi is not None:
        mask &= values < np.uint64(hi)
    return mask


def _aggregate(spec, columns: Dict[str, np.ndarray], mask: np.ndarray):
    """One aggregate's exact value over the masked rows."""
    if spec.kind == "count":
        return int(mask.sum())
    vals = columns[spec.column][mask]
    if spec.kind == "sum":
        return int(vals.astype(object).sum()) if vals.size else 0
    if not vals.size:
        return None
    return int(vals.min() if spec.kind == "min" else vals.max())


def _group_states(specs, columns: Dict[str, np.ndarray], key: str,
                  mask: np.ndarray) -> Dict[int, Dict[str, object]]:
    """Per-key aggregate states over the masked rows, keys in row order."""
    groups: Dict[int, Dict[str, object]] = {}
    for i in np.nonzero(mask)[0].tolist():
        g = groups.setdefault(int(columns[key][i]), {})
        for spec in specs:
            if spec.kind == "count":
                g[spec.name] = g.get(spec.name, 0) + 1
                continue
            v = int(columns[spec.column][i])
            cur = g.get(spec.name)
            if spec.kind == "sum":
                g[spec.name] = (cur or 0) + v
            elif spec.kind == "min":
                g[spec.name] = v if cur is None else min(cur, v)
            else:
                g[spec.name] = v if cur is None else max(cur, v)
    return groups


def expected_result(query, columns: Dict[str, np.ndarray], mask: np.ndarray,
                    aggregates=None) -> Tuple[str, object]:
    """``(kind, payload)`` a query must return over ``columns`` (name ->
    ``uint64`` values) restricted to the rows ``mask`` selects.

    Reads only the query's declared shape — its aggregate specs (or
    ``aggregates``, e.g. the specs a shard ships), group key, projection
    and limit — and computes every answer with Python ints:
    ``"aggregate"`` -> ``{name: value}``, ``"groups"`` -> ``{key: {name:
    value}}``, ``"rows"`` -> ``(row indices, {name: values})``.
    """
    specs = query.aggregates if aggregates is None else aggregates
    if specs and query.group_key is not None:
        return "groups", _group_states(specs, columns, query.group_key,
                                       mask)
    if specs:
        return "aggregate", {spec.name: _aggregate(spec, columns, mask)
                             for spec in specs}
    rows = np.nonzero(mask)[0].astype(np.int64)
    if query.limit_rows is not None:
        rows = rows[:query.limit_rows]
    return "rows", (rows, {name: columns[name][rows]
                           for name in (query.projection or ())})


def chunks_for(length: int) -> int:
    return -(-length // CHUNK)


def bits_needed(values: np.ndarray) -> int:
    """The width ``SmartTable.from_arrays`` gives a column: the bits of
    its largest value, at least 1."""
    return max(1, int(values.max()).bit_length()) if values.size else 1


def hull_decoded(chunks: np.ndarray, window: int) -> np.ndarray:
    """The chunks a windowed scan decodes to read the ``chunks`` mask:
    per aligned window of ``window`` chunks, the selected chunks — or
    everything from the window's first selected chunk to its last, when
    the runs it would otherwise decode one call each, less one, times
    ``HULL_CALL_CHUNKS`` exceed the unselected chunks in between."""
    decoded = chunks.copy()
    for start in range(0, chunks.size, window):
        picked = np.flatnonzero(chunks[start:start + window])
        if not picked.size:
            continue
        gaps = int(picked[-1] - picked[0] + 1 - picked.size)
        if int((np.diff(picked) > 1).sum()) * HULL_CALL_CHUNKS > gaps:
            decoded[start + picked[0]:start + picked[-1] + 1] = True
    return decoded


def span_chunks(start: int, stop: int, superchunk: int) -> int:
    """Chunks decoded by a superchunk-windowed span walk of [start, stop).

    Mirrors the window arithmetic of ``repro.core.map_api.iter_spans``:
    each step covers the part of one superchunk window intersecting the
    range, decoding every chunk the part touches.
    """
    total = 0
    pos = start
    while pos < stop:
        window_stop = min((pos // superchunk) * superchunk + superchunk, stop)
        total += -(-window_stop // CHUNK) - pos // CHUNK
        pos = window_stop
    return total


def take_chunks(start: int, n: int) -> int:
    """Chunks decoded by ``CompressedIterator.take(n)`` from ``start``.

    The iterator's bulk path always windows by 64 chunks (4096
    elements), anchored at the chunk containing the cursor.
    """
    total = 0
    pos = start
    stop = start + n
    while pos < stop:
        first_chunk = pos // CHUNK
        window_stop = min(stop, first_chunk * CHUNK + 64 * CHUNK)
        total += -(-window_stop // CHUNK) - first_chunk
        pos = window_stop
    return total


def batch_chunks(length: int, batch: int) -> int:
    """Chunks decoded by one parallel scan pass over ``[0, length)``.

    Batches start at multiples of ``batch`` (itself a multiple of 64),
    so no chunk is shared between batches: the pass decodes exactly the
    array's chunk count.
    """
    assert batch % CHUNK == 0
    return chunks_for(length)


class OracleArray:
    """Ground-truth model of one smart array's logical contents."""

    def __init__(self, length: int, bits: int) -> None:
        self.length = length
        self.bits = bits
        self.values = np.zeros(length, dtype=np.uint64)
        #: Whether the array carries a zone map (the runner indexes it).
        self.mapped = False

    # -- writes ----------------------------------------------------------

    def fill(self, values: np.ndarray) -> None:
        self.values[:] = values

    def set(self, index: int, value: int) -> None:
        self.values[index] = np.uint64(value)

    def scatter(self, indices: np.ndarray, values: np.ndarray) -> None:
        self.values[indices] = values

    # -- reads -----------------------------------------------------------

    def get(self, index: int) -> int:
        return int(self.values[index])

    def gather(self, indices: np.ndarray) -> np.ndarray:
        return self.values[indices]

    def range_mask(self, lo: int, hi: int) -> np.ndarray:
        return range_mask(self.values, lo, hi)

    def count_in_range(self, lo: int, hi: int) -> int:
        return int(self.range_mask(lo, hi).sum())

    def select_in_range(self, lo: int, hi: int) -> np.ndarray:
        return np.nonzero(self.range_mask(lo, hi))[0].astype(np.int64)

    def count_equal(self, value: int) -> int:
        if value < 0 or value > U64_MAX:
            return 0
        return int((self.values == np.uint64(value)).sum())

    def min_max(self) -> Tuple[int, int]:
        return int(self.values.min()), int(self.values.max())

    def sum_range(self, start: int, stop: int) -> int:
        return int(self.values[start:stop].astype(object).sum()) \
            if stop > start else 0

    # -- zone-map model ---------------------------------------------------

    def chunk_min_max(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-chunk true (min, max), ignoring padding slots."""
        n_chunks = chunks_for(self.length)
        mins = np.zeros(max(1, n_chunks), dtype=np.uint64)
        maxs = np.zeros(max(1, n_chunks), dtype=np.uint64)
        for c in range(n_chunks):
            span = self.values[c * CHUNK:min(self.length, (c + 1) * CHUNK)]
            mins[c] = span.min()
            maxs[c] = span.max()
        return mins[:n_chunks], maxs[:n_chunks]

    def chunk_sums(self) -> list:
        """Per-chunk true sums as Python ints, ignoring padding slots."""
        return [int(self.values[c:c + CHUNK].astype(object).sum())
                for c in range(0, self.length, CHUNK)]

    def zonemap_candidates(self, lo: int, hi: int) -> np.ndarray:
        return np.nonzero(self.zonemap_candidate_mask(lo, hi))[0] \
            .astype(np.int64)

    def zonemap_candidate_mask(self, lo: int, hi: int) -> np.ndarray:
        """Per-chunk candidate mask for ``[lo, hi)`` — the boolean form
        the query planner composes under AND/OR."""
        n_chunks = chunks_for(self.length)
        bounds = clamp_range(lo, hi)
        if bounds is None or n_chunks == 0:
            return np.zeros(n_chunks, dtype=bool)
        lo, hi = bounds
        mins, maxs = self.chunk_min_max()
        mask = maxs >= np.uint64(lo)
        if hi is not None:
            mask &= mins < np.uint64(hi)
        return mask

    def zonemap_covered_mask(self, lo: int, hi: int) -> np.ndarray:
        """Per-chunk mask of chunks whose every element lies in
        ``[lo, hi)`` (``min >= lo`` and ``max < hi``)."""
        n_chunks = chunks_for(self.length)
        bounds = clamp_range(lo, hi)
        if bounds is None or n_chunks == 0:
            return np.zeros(n_chunks, dtype=bool)
        lo, hi = bounds
        mins, maxs = self.chunk_min_max()
        mask = mins >= np.uint64(lo)
        if hi is not None:
            mask &= maxs < np.uint64(hi)
        return mask

    # -- iterator accounting ----------------------------------------------

    def walk_unpacks(self, start: int, n: int) -> int:
        """Scalar chunk unpacks of constructing a compressed iterator at
        ``start`` and stepping ``n`` times: one load at construction
        (when in bounds) plus one per chunk boundary crossed in bounds."""
        if self.bits in (32, 64):
            return 0
        loads = 1 if start < self.length else 0
        for j in range(start + 1, start + n + 1):
            if j % CHUNK == 0 and j < self.length:
                loads += 1
        return loads

    def take_accounting(self, start: int, n: int) -> Dict[str, int]:
        """Expected stats of iterator-construct-at-start + ``take(n)``."""
        n_eff = max(0, min(n, self.length - start))
        if self.bits in (32, 64):
            return {"chunk_unpacks": 0, "replica_reads": 0}
        construct = 1 if start < self.length else 0
        if n_eff == 0:
            return {"chunk_unpacks": construct, "replica_reads": 0}
        blocked = take_chunks(start, n_eff)
        stop = start + n_eff
        realign = 1 if (stop % CHUNK == 0 and stop < self.length) else 0
        return {
            "chunk_unpacks": construct + blocked + realign,
            "replica_reads": blocked * CHUNK,
        }
