"""Zone maps: per-chunk min/max metadata for chunk-skipping scans.

A classic column-store companion to compression: store each 64-element
chunk's min and max (themselves in bit-compressed smart arrays), and
range scans skip every chunk whose zone cannot intersect the predicate
— no unpack, no decode.  The smart-array chunk (paper section 4.2) is
the natural zone granule because the blocked decode already works
chunk-at-a-time.

Construction and the surviving-chunk scans both run on the bulk-span
engine: :meth:`ZoneMap.build` decodes a superchunk (64 chunks) per
blocked-kernel call and reduces ``min``/``max`` over a ``(n_chunks,
64)`` view, and the range scans decode *runs* of consecutive candidate
chunks in one call each instead of chunk-by-chunk.

The skipping is observable, not just asserted: scans go through the
array's access statistics (``chunk_unpacks`` counts logical chunks
decoded regardless of batching), so tests verify that a selective
predicate decodes only the surviving chunks.

**Monotone maps bind by binary search.**  A column stored in sorted
order (a timestamp, an append-only key) has non-decreasing chunk mins
*and* maxs.  On such a map the chunks with ``max >= lo`` form a suffix
and those with ``min < hi`` a prefix, so a range's candidates are one
run ``[searchsorted(maxs, lo), searchsorted(mins, hi))`` — O(log n)
instead of two compares, a ``nonzero`` and an index scatter over every
chunk bound.  The map records whether it is monotone when it decodes
its bounds; every other map keeps the compare path, which is the only
one an unsorted column ever takes.  Both paths return the same chunks
and bump the same counters.

**Covered chunks.**  A chunk whose whole zone lies inside the range
(``min >= lo`` and ``max < hi``) matches in every element, so nothing
in it needs decoding to be counted.  :meth:`ZoneMap.covered_run` (two
more binary searches on a monotone map) and its compare-path twin
:meth:`ZoneMap._compare_covered` are the one proof of that, shared by
:meth:`ZoneMap.count_in_range` and the query planner's covered morsels.

**Chunk synopses.**  Next to each chunk's min and max the map keeps
its exact sum, packed at the zone width plus 6 bits (64 values below
``2**bits`` sum below ``2**(bits + 6)``); a column wider than
:data:`MAX_SUM_BITS` (58) stores none, since its chunk sums would not
fit a 64-bit slot.  A covered chunk's count, sum, min and max are then
read from the map instead of decoded (Moerkotte's small materialized
aggregates): :meth:`ZoneMap.synopsis` reduces a run or mask of chunks,
exactly at every width, and the query executor answers the covered
chunks of an aggregate that way.  :meth:`ZoneMap.from_values` builds a
map from the values a column was filled with by three ``reduceat``
passes and decodes nothing; table ingest uses it for every column.

**Fragmented candidates.**  On a map that is not monotone the chunks a
scan must decode can scatter into thousands of one-chunk runs, and a
decode call per run costs far more than the chunks it decodes.  Scans
therefore work window by aligned window (a superchunk here, a morsel in
the query executor): a window whose runs are separated by fewer gap
chunks than the calls they take are worth (:data:`HULL_CALL_CHUNKS`
each) decodes their *hull*, first to last, in one call, and the
predicate filters the chunks in between (none of which can match, or
which match and are then counted by the scan rather than from their
zone).  :func:`window_hulls` is that rule; it bounds a window to
``1 + window // HULL_CALL_CHUNKS`` decode calls, one for a superchunk.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from . import bitpack
from .allocate import allocate
from .map_api import SUPERCHUNK_ELEMENTS, check_superchunk
from .scan_ops import _range_mask, clamp_u64_range
from .smart_array import SmartArray
from ..obs.registry import registry as _obs_registry
from ..obs.trace import trace


#: Extra bits a chunk sum needs over its values: 64 = 2**6 of them.
SUM_EXTRA_BITS = 6

#: Widest zone whose chunk sums a map stores (``58 + 6 = 64`` bits).
MAX_SUM_BITS = 64 - SUM_EXTRA_BITS

#: Chunks a decode call's fixed cost is worth: about 22 µs per call
#: against 0.11 µs per chunk decoded (20-bit column, 2-core x86 host).
#: A window decodes the hull of its runs when the calls it saves are
#: worth more than the gap chunks the hull decodes in between.
HULL_CALL_CHUNKS = 128

#: Chunks as one run ``(first, stop)`` or a per-chunk boolean mask.
Chunks = Union[Tuple[int, int], np.ndarray]


def _non_decreasing(bounds: np.ndarray) -> bool:
    """True when every chunk bound is at least the one before it."""
    return bool((bounds[1:] >= bounds[:-1]).all())


def window_hulls(chunks: np.ndarray, window: int
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """``(first, stop)`` per aligned window of ``window`` chunks over the
    per-chunk mask ``chunks``: the hull of the window's chunks when it is
    cheaper to decode than their runs — ``runs - 1`` saved calls worth
    :data:`HULL_CALL_CHUNKS` each outweigh the gap chunks inside the
    hull — else ``(0, 0)``.

    Bounds are global chunk indices.  A window with a hull decodes it in
    one call; every other window decodes its runs, which are then at
    most ``1 + window // HULL_CALL_CHUNKS``.
    """
    n_windows = -(-chunks.size // window)
    padded = np.zeros(n_windows * window, dtype=bool)
    padded[:chunks.size] = chunks
    # Run starts, counted per window: a set chunk after a clear one, or
    # a set chunk opening its window.
    starts = np.empty_like(padded)
    starts[0] = padded[0]
    np.greater(padded[1:], padded[:-1], out=starts[1:])
    starts[::window] = padded[::window]
    runs = starts.view(np.uint8).reshape(n_windows, window).sum(
        axis=1, dtype=np.int32)
    first = np.zeros(n_windows, dtype=np.int64)
    stop = np.zeros(n_windows, dtype=np.int64)
    multi = np.flatnonzero(runs > 1)
    if multi.size:
        grid = padded.reshape(n_windows, window)[multi]
        lo = grid.argmax(axis=1)
        hi = window - grid[:, ::-1].argmax(axis=1)
        gaps = hi - lo - grid.view(np.uint8).sum(axis=1, dtype=np.int32)
        hull = (runs[multi] - 1) * HULL_CALL_CHUNKS > gaps
        multi = multi[hull]
        first[multi] = multi * window + lo[hull]
        stop[multi] = multi * window + hi[hull]
    return first, stop


def edges_hulled(first: int, stop: int, cover_first: int, cover_stop: int,
                 window: int) -> bool:
    """:func:`window_hulls` on a candidate run ``[first, stop)`` whose
    covered run ``[cover_first, cover_stop)`` is left out: True when the
    two edge runs around it share an aligned window of ``window`` chunks
    and the covered chunks between them are fewer than a second decode
    call is worth — that window then decodes its hull."""
    return (first < cover_first < cover_stop < stop
            and (cover_first - 1) // window == cover_stop // window
            and cover_stop - cover_first < HULL_CALL_CHUNKS)


def _decode_runs(chunks: np.ndarray, window: int
                 ) -> Tuple[List[Tuple[int, int]], Optional[np.ndarray]]:
    """The decode calls for the chunks ``chunks`` selects, window by
    aligned window: its runs, or its hull when they fragment
    (:func:`window_hulls`).  Also returns the chunks the calls decode,
    ``None`` when that is exactly ``chunks``."""
    first, stop = window_hulls(chunks, window)
    hulls = np.flatnonzero(stop)
    if not hulls.size:
        return list(_chunk_runs(np.flatnonzero(chunks), window)), None
    decoded = chunks.copy()
    for window_index in hulls.tolist():
        decoded[first[window_index]:stop[window_index]] = True
    in_hull = np.repeat(stop > 0, window)[:chunks.size]
    runs = list(_chunk_runs(np.flatnonzero(chunks & ~in_hull), window))
    runs += zip(first[hulls].tolist(), (stop - first)[hulls].tolist())
    runs.sort()
    return runs, decoded


def chunk_rows(length: int, chunks: Chunks) -> int:
    """Rows of a ``length``-row column inside ``chunks`` (a run or a
    per-chunk mask): 64 per chunk, the trailing partial chunk's real
    rows only."""
    if isinstance(chunks, tuple):
        first, stop = chunks
        selected, has_last = stop - first, stop > first and (
            stop == bitpack.chunks_for(length))
    else:
        selected = int(np.count_nonzero(chunks))
        has_last = bool(chunks.size) and bool(chunks[-1])
    rows = selected * bitpack.CHUNK_ELEMENTS
    tail = length % bitpack.CHUNK_ELEMENTS
    if has_last and tail:
        rows -= bitpack.CHUNK_ELEMENTS - tail
    return rows


def _select(bounds: np.ndarray, chunks: Chunks) -> np.ndarray:
    if isinstance(chunks, tuple):
        return bounds[chunks[0]:chunks[1]]
    return bounds[chunks]


def _split_run(first: int, count: int,
               max_run: int) -> Iterator[Tuple[int, int]]:
    """``(first, count)`` cut into runs at most ``max_run`` long."""
    for done in range(0, count, max_run):
        yield first + done, min(max_run, count - done)


def _chunk_runs(chunks: np.ndarray, max_run: int) -> Iterator[Tuple[int, int]]:
    """Group sorted chunk indices into ``(first, count)`` runs of
    consecutive chunks, each at most ``max_run`` long."""
    if chunks.size == 0:
        return
    starts = np.concatenate(([0], np.flatnonzero(np.diff(chunks) != 1) + 1))
    lengths = np.diff(starts, append=chunks.size)
    for first, length in zip(chunks[starts].tolist(), lengths.tolist()):
        yield from _split_run(first, length, max_run)


class ZoneMap:
    """Per-chunk min/max index over a smart array's contents, plus each
    chunk's exact sum when the values are at most :data:`MAX_SUM_BITS`
    wide."""

    def __init__(self, array: SmartArray, mins: SmartArray,
                 maxs: SmartArray, sums: Optional[SmartArray] = None
                 ) -> None:
        self.array = array
        self.mins = mins
        self.maxs = maxs
        #: Per-chunk sums at the zone width plus :data:`SUM_EXTRA_BITS`,
        #: or ``None`` for a zone wider than :data:`MAX_SUM_BITS`.
        self.sums = sums
        #: Storage-generation epoch of ``array`` when the map was built.
        #: A live migration bumps the epoch; cached maps from an older
        #: epoch are dropped by ``SmartTable.zone_map`` (the zone
        #: *contents* survive a value-preserving migration, but the
        #: epoch is the cheap, conservative invalidation signal).
        self.built_epoch = getattr(array, "generation_epoch", 0)
        #: ``array.write_epoch`` when the build scan started (see
        #: :meth:`_build`).  An in-place write bumps the array's epoch,
        #: and ``SmartTable.zone_map`` then drops this map rather than
        #: prune or cover chunks whose contents it no longer describes.
        self.built_write_epoch = getattr(array, "write_epoch", 0)
        #: ``(mins, maxs)`` decoded to NumPy by the first range lookup
        #: (see :meth:`bounds`); nothing is decoded at build time.
        self._bounds: Optional[Tuple[np.ndarray, np.ndarray]] = None
        #: Whether both decoded bound arrays are non-decreasing; set by
        #: :meth:`bounds` before it publishes them.
        self._monotone = False
        #: ``sums`` decoded by the first :meth:`chunk_sums`.
        self._sums: Optional[np.ndarray] = None

    @classmethod
    def build(cls, array: SmartArray, allocator=None,
              superchunk=None) -> "ZoneMap":
        """Scan ``array`` once and record each chunk's min, max and sum.

        The zone arrays use the same bit width as the data (zone values
        are data values), so the bounds cost ``2/64`` of the column.
        The scan decodes ``superchunk // 64`` chunks per blocked-kernel
        call and reduces over a ``(chunks, 64)`` view — no per-chunk
        Python loop.  A map of a column filled from known values is
        cheaper to build with :meth:`from_values`.
        """
        n_chunks = bitpack.chunks_for(array.length)
        with trace("zonemap.build", array=array.stats.array_label,
                   chunks=n_chunks):
            return cls._build(array, n_chunks, allocator, superchunk)

    @classmethod
    def _build(cls, array: SmartArray, n_chunks: int, allocator,
               superchunk) -> "ZoneMap":
        chunks_per_step = check_superchunk(superchunk) // bitpack.CHUNK_ELEMENTS
        # Read before the scan: a write racing the build leaves the map
        # stale, never current.
        write_epoch = getattr(array, "write_epoch", 0)
        mins = np.zeros(n_chunks, dtype=np.uint64)
        maxs = np.zeros(n_chunks, dtype=np.uint64)
        sums = np.zeros(n_chunks, dtype=np.uint64)
        buf = np.empty(chunks_per_step * bitpack.CHUNK_ELEMENTS,
                       dtype=np.uint64)
        with np.errstate(over="ignore"):
            for first in range(0, n_chunks, chunks_per_step):
                n = min(chunks_per_step, n_chunks - first)
                decoded = array.decode_chunks(first, n, out=buf)
                grid = decoded[:n * bitpack.CHUNK_ELEMENTS].reshape(
                    n, bitpack.CHUNK_ELEMENTS
                )
                mins[first:first + n] = grid.min(axis=1)
                maxs[first:first + n] = grid.max(axis=1)
                # Wraps only past MAX_SUM_BITS, where no sum is kept.
                sums[first:first + n] = grid.sum(axis=1, dtype=np.uint64)
            # A trailing partial chunk decodes padding slots too; its
            # zone must come from the real elements only.
            tail = array.length % bitpack.CHUNK_ELEMENTS
            if n_chunks and tail:
                last = buf[
                    (n_chunks - 1 - first) * bitpack.CHUNK_ELEMENTS:
                ][:tail]
                mins[n_chunks - 1] = last.min()
                maxs[n_chunks - 1] = last.max()
                sums[n_chunks - 1] = last.sum(dtype=np.uint64)
        return cls._from_chunks(array, mins, maxs, sums, write_epoch,
                                allocator)

    @classmethod
    def from_values(cls, array: SmartArray, values: np.ndarray,
                    allocator=None) -> "ZoneMap":
        """The map of ``array``, which holds exactly ``values``, from the
        values themselves: one ``reduceat`` per statistic over the chunk
        starts, so nothing is decoded.  Equal, bound for bound, to
        :meth:`build` on the same array."""
        values = np.ascontiguousarray(values, dtype=np.uint64)
        if values.size != array.length:
            raise ValueError(
                f"{values.size} values for a {array.length}-element array"
            )
        write_epoch = getattr(array, "write_epoch", 0)
        starts = np.arange(0, values.size, bitpack.CHUNK_ELEMENTS)
        with trace("zonemap.from_values", array=array.stats.array_label,
                   chunks=starts.size):
            if not starts.size:
                empty = np.zeros(0, dtype=np.uint64)
                return cls._from_chunks(array, empty, empty, empty,
                                        write_epoch, allocator)
            with np.errstate(over="ignore"):
                sums = np.add.reduceat(values, starts, dtype=np.uint64)
            return cls._from_chunks(
                array, np.minimum.reduceat(values, starts),
                np.maximum.reduceat(values, starts), sums, write_epoch,
                allocator)

    @classmethod
    def _from_chunks(cls, array: SmartArray, mins: np.ndarray,
                     maxs: np.ndarray, sums: np.ndarray, write_epoch: int,
                     allocator) -> "ZoneMap":
        """Pack per-chunk statistics into the map's zone arrays."""
        n_chunks = mins.size
        # Zone values are *data* values, so the zone arrays use the
        # data's value width.  For bitpack generations that is
        # ``array.bits``; for encoded generations ``bits`` is the
        # narrow payload width (codes/deltas) and packing a zone max
        # into it would overflow — use the decoded-value width instead.
        zbits = array.bits
        if getattr(array.generation, "codec", "bitpack") != "bitpack":
            zbits = bitpack.max_bits_needed(maxs) if n_chunks else 1
        zones = [(mins, zbits), (maxs, zbits)]
        if zbits <= MAX_SUM_BITS:
            zones.append((sums, zbits + SUM_EXTRA_BITS))
        packed = []
        for values, bits in zones:
            zone = allocate(n_chunks, bits=bits, allocator=allocator)
            if n_chunks:
                zone.fill(values)
            packed.append(zone)
        zm = cls(array, *packed)
        zm.built_write_epoch = write_epoch
        return zm

    @property
    def n_chunks(self) -> int:
        return self.mins.length

    def bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """The per-chunk ``(mins, maxs)`` as read-only ``uint64`` arrays,
        decoded from the zone arrays once per map.

        A map's zone arrays are never written after :meth:`build` — a
        written or migrated column gets a *new* map (``SmartTable.
        build_zone_map`` / ``zone_map`` drop the old one) — so the
        decoded pair lives exactly as long as the bounds it mirrors and
        needs no invalidation.  The pair is published as one tuple:
        planners racing on the first lookup each decode the same values
        and the last store wins.
        """
        bounds = self._bounds
        if bounds is None:
            bounds = (self.mins.to_numpy(), self.maxs.to_numpy())
            for decoded in bounds:
                decoded.flags.writeable = False
            self._monotone = all(_non_decreasing(b) for b in bounds)
            self._bounds = bounds
        return bounds

    @property
    def monotone(self) -> bool:
        """Whether chunk mins and maxs are both non-decreasing (decodes
        the bounds on first use)."""
        self.bounds()
        return self._monotone

    def chunk_sums(self) -> Optional[np.ndarray]:
        """Per-chunk exact sums as a read-only ``uint64`` array, decoded
        once per map like :meth:`bounds`; ``None`` when the zone is
        wider than :data:`MAX_SUM_BITS` and the map keeps no sums."""
        if self.sums is None:
            return None
        sums = self._sums
        if sums is None:
            sums = self.sums.to_numpy()
            sums.flags.writeable = False
            self._sums = sums
        return sums

    def synopsis(self, kind: str, chunks: Chunks):
        """``kind`` (``"sum"``, ``"min"`` or ``"max"``) of the column over
        ``chunks`` — a run ``(first, stop)`` or a per-chunk mask — read
        from the per-chunk statistics, nothing decoded.

        Sums are exact Python ints at every width: a slice whose total
        could pass ``2**64`` is summed in 32-bit halves.  ``min``/``max``
        of no chunk are ``None``; ``sum`` needs a map that keeps sums.
        """
        if kind == "sum":
            sums = self.chunk_sums()
            if sums is None:
                raise ValueError(
                    f"a {self.mins.bits}-bit zone map keeps no chunk sums"
                )
            part = _select(sums, chunks)
            if self.sums.bits + part.size.bit_length() <= 64:
                return int(part.sum(dtype=np.uint64))
            return (
                (int((part >> np.uint64(32)).sum(dtype=np.uint64)) << 32)
                + int((part & np.uint64(0xFFFFFFFF)).sum(dtype=np.uint64))
            )
        mins, maxs = self.bounds()
        part = _select(mins if kind == "min" else maxs, chunks)
        if not part.size:
            return None
        return int(part.min() if kind == "min" else part.max())

    def _count_candidates(self, candidates: int) -> None:
        # Observable skipping: every pruning decision lands in the
        # registry, labelled by the array it spared from decoding.
        reg = _obs_registry()
        label = self.array.stats.array_label
        reg.counter("zonemap.chunks_candidate", array=label).add(candidates)
        reg.counter("zonemap.chunks_pruned",
                    array=label).add(self.n_chunks - candidates)

    def candidate_run(self, lo: int, hi: int) -> Optional[Tuple[int, int]]:
        """The chunks whose zone intersects ``[lo, hi)`` as one run
        ``(first, stop)`` of consecutive chunk indices — on a
        :attr:`monotone` map, found by two binary searches.  ``None``
        when the map is not monotone (use :meth:`candidate_chunks`).

        Clamps and counts exactly like :meth:`candidate_chunks`; a range
        no value can match is the empty run ``(0, 0)`` on any map.
        """
        bounds = clamp_u64_range(lo, hi)
        if bounds is None or self.n_chunks == 0:
            return 0, 0
        mins, maxs = self.bounds()
        if not self._monotone:
            return None
        lo64, hi64 = bounds
        first = int(maxs.searchsorted(lo64)) if lo64 else 0
        stop = (self.n_chunks if hi64 is None
                else max(first, int(mins.searchsorted(hi64))))
        self._count_candidates(stop - first)
        return first, stop

    def candidate_chunks(self, lo: int, hi: int) -> np.ndarray:
        """Chunks whose [min, max] zone intersects ``[lo, hi)``.

        Bounds clamp to the ``uint64`` domain exactly like the scan
        operators (:func:`repro.core.scan_ops.clamp_u64_range`), so a
        ``hi`` at or above ``2**64`` keeps every chunk with
        ``max >= lo`` instead of overflowing.
        """
        run = self.candidate_run(lo, hi)
        if run is not None:
            return np.arange(*run, dtype=np.int64)
        return self._compare_candidates(lo, hi)

    def _compare_candidates(self, lo: int, hi: int) -> np.ndarray:
        """:meth:`candidate_chunks` by comparing every chunk's bounds —
        the path for maps that are not monotone."""
        bounds = clamp_u64_range(lo, hi)
        if bounds is None or self.n_chunks == 0:
            return np.empty(0, dtype=np.int64)
        lo64, hi64 = bounds
        mins, maxs = self.bounds()
        mask = maxs >= lo64
        if hi64 is not None:
            mask &= mins < hi64
        candidates = np.nonzero(mask)[0].astype(np.int64)
        self._count_candidates(candidates.size)
        return candidates

    def covered_run(self, lo: int, hi: int) -> Optional[Tuple[int, int]]:
        """The chunks whose zone lies inside ``[lo, hi)`` — every element
        of them matches — as one run ``(first, stop)``: on a
        :attr:`monotone` map the chunks with ``min >= lo`` are a suffix
        and those with ``max < hi`` a prefix, so two binary searches
        find it.  ``None`` when the map is not monotone (use
        :meth:`_compare_covered`).

        Clamps like :meth:`candidate_run`; the run lies inside the
        candidate run, and a range no value can match is ``(0, 0)``.
        Counts nothing: the chunks were already counted as candidates.
        """
        bounds = clamp_u64_range(lo, hi)
        if bounds is None or self.n_chunks == 0:
            return 0, 0
        mins, maxs = self.bounds()
        if not self._monotone:
            return None
        lo64, hi64 = bounds
        first = int(mins.searchsorted(lo64)) if lo64 else 0
        stop = (self.n_chunks if hi64 is None
                else int(maxs.searchsorted(hi64)))
        return first, max(first, stop)

    def _compare_covered(self, lo: int, hi: int) -> np.ndarray:
        """Per-chunk mask of :meth:`covered_run`'s chunks by comparing
        every chunk's bounds — the path for maps that are not monotone."""
        bounds = clamp_u64_range(lo, hi)
        if bounds is None or self.n_chunks == 0:
            return np.zeros(self.n_chunks, dtype=bool)
        lo64, hi64 = bounds
        mins, maxs = self.bounds()
        covered = mins >= lo64
        if hi64 is not None:
            covered &= maxs < hi64
        return covered

    def count_in_range(self, lo: int, hi: int, socket: int = 0,
                       superchunk=None) -> int:
        """COUNT(*) WHERE lo <= v < hi, decoding only candidate chunks.

        Chunks entirely inside the range are counted without decoding
        at all (their zone proves every element matches); the rest are
        decoded in consecutive runs through the blocked kernel, or as
        one hull per fragmented superchunk window (:func:`window_hulls`).
        """
        with trace("zonemap.count_in_range",
                   array=self.array.stats.array_label, socket=socket):
            return self._count_in_range(lo, hi, socket, superchunk)

    def _count_in_range(self, lo: int, hi: int, socket: int,
                        superchunk) -> int:
        max_run = check_superchunk(superchunk) // bitpack.CHUNK_ELEMENTS
        run = self.candidate_run(lo, hi)
        if run is not None:
            first, stop = run
            if first == stop:
                return 0
            # Covered chunks (min >= lo, max < hi) are a run inside the
            # candidates by the same monotonicity.
            cover_first, cover_stop = self.covered_run(lo, hi)
            cover_first, cover_stop = max(first, cover_first), min(
                stop, cover_stop)
            if cover_stop <= cover_first or edges_hulled(
                    first, stop, cover_first, cover_stop, max_run):
                # Nothing covered, or edge runs in one window around
                # fewer covered chunks than a second decode call is
                # worth: decode the whole run, as window_hulls would.
                cover_first = cover_stop = stop
            total = chunk_rows(self.array.length, (cover_first, cover_stop))
            runs = [*_split_run(first, cover_first - first, max_run),
                    *_split_run(cover_stop, stop - cover_stop, max_run)]
        else:
            candidates = self._compare_candidates(lo, hi)
            if candidates.size == 0:
                return 0
            # Decode the uncovered candidates; a covered chunk inside a
            # decoded hull is counted by the scan, not by its zone.
            covered = self._compare_covered(lo, hi)
            decode = np.zeros(self.n_chunks, dtype=bool)
            decode[candidates] = True
            decode &= ~covered
            runs, decoded = _decode_runs(decode, max_run)
            if decoded is not None:
                covered &= ~decoded
            total = chunk_rows(self.array.length, covered)
        lo64, hi64 = clamp_u64_range(lo, hi)
        replica = self.array.get_replica(socket)
        buf = np.empty(max_run * bitpack.CHUNK_ELEMENTS, dtype=np.uint64)
        for first, n in runs:
            decoded = self.array.decode_chunks(first, n, replica=replica,
                                               out=buf)
            start = first * bitpack.CHUNK_ELEMENTS
            end = min(self.array.length, start + n * bitpack.CHUNK_ELEMENTS)
            span = decoded[:end - start]
            total += int(_range_mask(span, lo64, hi64).sum())
        return total

    def select_in_range(self, lo: int, hi: int, socket: int = 0,
                        superchunk=None) -> np.ndarray:
        """Matching indices, decoding candidate-chunk runs only."""
        with trace("zonemap.select_in_range",
                   array=self.array.stats.array_label, socket=socket):
            return self._select_in_range(lo, hi, socket, superchunk)

    def _select_in_range(self, lo: int, hi: int, socket: int,
                         superchunk) -> np.ndarray:
        max_run = check_superchunk(superchunk) // bitpack.CHUNK_ELEMENTS
        run = self.candidate_run(lo, hi)
        if run is not None:
            if run[0] == run[1]:
                return np.empty(0, dtype=np.int64)
            runs = _split_run(run[0], run[1] - run[0], max_run)
        else:
            candidates = self._compare_candidates(lo, hi)
            if candidates.size == 0:
                return np.empty(0, dtype=np.int64)
            decode = np.zeros(self.n_chunks, dtype=bool)
            decode[candidates] = True
            runs = _decode_runs(decode, max_run)[0]
        lo64, hi64 = clamp_u64_range(lo, hi)
        out: List[np.ndarray] = []
        replica = self.array.get_replica(socket)
        buf = np.empty(max_run * bitpack.CHUNK_ELEMENTS, dtype=np.uint64)
        for first, n in runs:
            decoded = self.array.decode_chunks(first, n, replica=replica,
                                               out=buf)
            start = first * bitpack.CHUNK_ELEMENTS
            end = min(self.array.length, start + n * bitpack.CHUNK_ELEMENTS)
            span = decoded[:end - start]
            local = np.nonzero(_range_mask(span, lo64, hi64))[0]
            if local.size:
                out.append(local + start)
        if not out:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(out)

    @property
    def storage_bytes(self) -> int:
        return sum(zone.storage_bytes
                   for zone in (self.mins, self.maxs, self.sums)
                   if zone is not None)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ZoneMap chunks={self.n_chunks} over {self.array!r}>"
        )
