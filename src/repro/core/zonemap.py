"""Zone maps: per-chunk min/max metadata for chunk-skipping scans.

A classic column-store companion to compression: store each 64-element
chunk's min and max, and range scans skip every chunk whose zone cannot
intersect the predicate — no unpack, no decode.  The smart-array chunk
(paper section 4.2) is the natural zone granule because the blocked
decode already works chunk-at-a-time.

The map is metadata only: it describes a column, and the query
executor (:mod:`repro.query`) is the one thing that decodes it.  The
planner binds a predicate to the map's candidate and covered chunks,
the executor decodes the rest, and every scan operator
(:mod:`repro.core.scan_ops`) is a query.  :meth:`ZoneMap.build` decodes
a superchunk (64 chunks) per blocked-kernel call and reduces each chunk
of it.

**Monotone maps bind by binary search.**  A column stored in sorted
order (a timestamp, an append-only key) has non-decreasing chunk mins
*and* maxs.  On such a map the chunks with ``max >= lo`` form a suffix
and those with ``min < hi`` a prefix, so a range's candidates are one
run ``[searchsorted(maxs, lo), searchsorted(mins, hi))`` — O(log n)
instead of two compares, a ``nonzero`` and an index scatter over every
chunk bound.  The map records whether it is monotone when it is
made; every other map keeps the compare path, which is the only
one an unsorted column ever takes.  Both paths return the same chunks
and bump the same counters.

**Covered chunks.**  A chunk whose whole zone lies inside the range
(``min >= lo`` and ``max < hi``) matches in every element, so nothing
in it needs decoding to be counted.  :meth:`ZoneMap.covered_run` (two
more binary searches on a monotone map) and its compare-path twin
:meth:`ZoneMap._compare_covered` are the one proof of that, which the
query planner's covered morsels and chunk synopses rest on.

**Chunk synopses.**  Next to each chunk's min and max the map keeps its
exact sum (64 values below ``2**bits`` sum below ``2**(bits + 6)``); a
zone wider than :data:`MAX_SUM_BITS` (58) offers none, since its chunk
sums need not fit a 64-bit word.  A covered chunk's count, sum, min and
max are then read from the map instead of decoded (Moerkotte's small
materialized aggregates): :meth:`ZoneMap.synopsis` reduces a run or mask
of chunks, exactly at every width, and the query executor answers the
covered chunks of an aggregate that way.  :meth:`ZoneMap.from_values`
builds a map from the values a column was filled with by three
``reduceat`` passes and decodes nothing; table ingest uses it for every
column.

**One map per column, exact under writes.**  A map is an immutable
snapshot: read-only ``uint64`` mins, maxs and sums and the monotone
flag.  The map a table indexes a column with is the column's own
(``SmartArray.zone_map``), and every write to the column replaces it,
under the column's write gate, with one exact for the new contents:
:meth:`ZoneMap.rewritten` re-reads the chunks a store touched,
:meth:`ZoneMap.refilled` takes a fill's values.  Exact, not widened:
synopses answer MIN and MAX from the bounds, and a bound left wide by
a value since overwritten would answer wrong.  A migration preserves
values and keeps the map, so nothing is ever invalidated or rebuilt,
and a reader that loads the map once decides everything from one
snapshot.

**Fragmented candidates.**  On a map that is not monotone the chunks a
scan must decode can scatter into thousands of one-chunk runs, and a
decode call per run costs far more than the chunks it decodes.  The
query planner therefore works morsel by aligned morsel: a window whose runs are separated by fewer gap
chunks than the calls they take are worth (:data:`HULL_CALL_CHUNKS`
each) decodes their *hull*, first to last, in one call, and the
predicate filters the chunks in between (none of which can match, or
which match and are then counted by the scan rather than from their
zone).  :func:`window_hulls` is that rule; it bounds a window to
``1 + window // HULL_CALL_CHUNKS`` decode calls.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple, Union

import numpy as np

from . import bitpack
from .bitpack_fast import unpack_chunk_range
from .map_api import check_superchunk
from .scan_ops import clamp_u64_range
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


def _chunk_runs(chunks: np.ndarray, max_run: int) -> Iterator[Tuple[int, int]]:
    """Group sorted chunk indices into ``(first, count)`` runs of
    consecutive chunks, each at most ``max_run`` long."""
    if chunks.size == 0:
        return
    starts = np.concatenate(([0], np.flatnonzero(np.diff(chunks) != 1) + 1))
    lengths = np.diff(starts, append=chunks.size)
    for first, length in zip(chunks[starts].tolist(), lengths.tolist()):
        for done in range(0, length, max_run):
            yield first + done, min(max_run, length - done)


def _chunk_stats(values: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(mins, maxs, sums)`` of ``values`` cut into consecutive 64-element
    chunks, the last one possibly short: one ``reduceat`` per statistic
    over the chunk starts.  Sums wrap modulo ``2**64``, which only
    values wider than :data:`MAX_SUM_BITS` can make them do."""
    starts = np.arange(0, values.size, bitpack.CHUNK_ELEMENTS)
    if not starts.size:
        return _NO_CHUNKS, _NO_CHUNKS, _NO_CHUNKS
    with np.errstate(over="ignore"):
        sums = np.add.reduceat(values, starts, dtype=np.uint64)
    return (np.minimum.reduceat(values, starts),
            np.maximum.reduceat(values, starts), sums)


_NO_CHUNKS = np.zeros(0, dtype=np.uint64)
_NO_CHUNKS.flags.writeable = False


class ZoneMap:
    """Per-chunk min/max index over a smart array's contents, plus each
    chunk's exact sum while the values are at most :data:`MAX_SUM_BITS`
    bits wide.

    A map is an immutable snapshot: its statistics are read-only
    ``uint64`` arrays.  The map a column carries (``SmartArray.
    zone_map``) is replaced, never changed, by each write to the column
    (:meth:`rewritten`, :meth:`refilled`), so a reader that loads it once
    prunes, covers and answers synopses from one consistent state.
    """

    def __init__(self, array: SmartArray, mins: np.ndarray,
                 maxs: np.ndarray, sums: np.ndarray) -> None:
        self.array = array
        self.mins = mins
        self.maxs = maxs
        #: The zone width: the bits the column's largest value needs.
        self.bits = bitpack.max_bits_needed(maxs)
        #: Every chunk's sum modulo ``2**64``, kept at every width so
        #: that the sums are whole again once the wide values are gone.
        self._sums = sums
        #: Per-chunk exact sums, or ``None`` while :attr:`bits` is past
        #: :data:`MAX_SUM_BITS` (a chunk sum could then pass ``2**64``).
        self.sums = sums if self.bits <= MAX_SUM_BITS else None
        for stat in (mins, maxs, sums):
            stat.flags.writeable = False
        #: Whether chunk mins and maxs are both non-decreasing.
        self.monotone = _non_decreasing(mins) and _non_decreasing(maxs)

    @classmethod
    def build(cls, array: SmartArray, superchunk=None) -> "ZoneMap":
        """Scan ``array`` once and record each chunk's min, max and sum.

        The scan decodes ``superchunk // 64`` chunks per blocked-kernel
        call and reduces each chunk of the decoded span — no per-chunk
        Python loop.  A map of a column filled from known values is
        cheaper to build with :meth:`from_values`.
        """
        n_chunks = bitpack.chunks_for(array.length)
        with trace("zonemap.build", array=array.stats.array_label,
                   chunks=n_chunks):
            step = check_superchunk(superchunk) // bitpack.CHUNK_ELEMENTS
            buf = np.empty(step * bitpack.CHUNK_ELEMENTS, dtype=np.uint64)
            parts = [_chunk_stats(_NO_CHUNKS)]  # an empty array's map
            for first in range(0, n_chunks, step):
                n = min(step, n_chunks - first)
                decoded = array.decode_chunks(first, n, out=buf)
                # A trailing partial chunk decodes padding slots too;
                # its zone must come from the real elements only.
                parts.append(_chunk_stats(
                    decoded[:n * bitpack.CHUNK_ELEMENTS]
                    [:array.length - first * bitpack.CHUNK_ELEMENTS]))
            return cls(array, *(np.concatenate(stat)
                                for stat in zip(*parts)))

    @classmethod
    def from_values(cls, array: SmartArray, values: np.ndarray
                    ) -> "ZoneMap":
        """The map of ``array``, which holds exactly ``values``, from the
        values themselves, so nothing is decoded.  Equal, bound for
        bound, to :meth:`build` on the same array."""
        values = np.ascontiguousarray(values, dtype=np.uint64)
        if values.size != array.length:
            raise ValueError(
                f"{values.size} values for a {array.length}-element array"
            )
        with trace("zonemap.from_values", array=array.stats.array_label,
                   chunks=bitpack.chunks_for(values.size)):
            return cls(array, *_chunk_stats(values))

    def rewritten(self, gen, chunks: np.ndarray) -> "ZoneMap":
        """This map after a write to ``chunks`` (ascending, distinct) of
        the column, whose words the write just stored in the bit-packed
        generation ``gen``: those chunks' statistics re-read from the
        words, every other chunk's kept.  The bounds stay exact, never
        merely widened, since a min or max answered from a widened
        bound would be wrong.  Reads the words as a store's
        read-modify-write does, outside the access statistics."""
        bits = gen.bits
        words = gen.buffers[0][:bitpack.words_for(self.array.length, bits)]
        values = unpack_chunk_range(
            words.reshape(-1, bits)[chunks].ravel(), 0, chunks.size, bits)
        tail = self.array.length % bitpack.CHUNK_ELEMENTS
        if tail and chunks[-1] == self.n_chunks - 1:
            values = values[:values.size - bitpack.CHUNK_ELEMENTS + tail]
        stats = []
        for old, new in zip((self.mins, self.maxs, self._sums),
                            _chunk_stats(values)):
            old = old.copy()
            old[chunks] = new
            stats.append(old)
        return ZoneMap(self.array, *stats)

    def refilled(self, values: np.ndarray) -> "ZoneMap":
        """This map after a write replaced the whole column with
        ``values``: every statistic from the values, nothing decoded."""
        return ZoneMap(self.array, *_chunk_stats(values))

    @property
    def n_chunks(self) -> int:
        return self.mins.size

    def synopsis(self, kind: str, chunks: Chunks):
        """``kind`` (``"sum"``, ``"min"`` or ``"max"``) of the column over
        ``chunks`` — a run ``(first, stop)`` or a per-chunk mask — read
        from the per-chunk statistics, nothing decoded.

        Sums are exact Python ints at every width: a slice whose total
        could pass ``2**64`` is summed in 32-bit halves.  ``min``/``max``
        of no chunk are ``None``; ``sum`` needs a map that keeps sums.
        """
        if kind == "sum":
            if self.sums is None:
                raise ValueError(
                    f"a {self.bits}-bit zone map keeps no chunk sums"
                )
            part = _select(self.sums, chunks)
            if (self.bits + SUM_EXTRA_BITS
                    + part.size.bit_length() <= 64):
                return int(part.sum(dtype=np.uint64))
            return (
                (int((part >> np.uint64(32)).sum(dtype=np.uint64)) << 32)
                + int((part & np.uint64(0xFFFFFFFF)).sum(dtype=np.uint64))
            )
        part = _select(self.mins if kind == "min" else self.maxs, chunks)
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
        if not self.monotone:
            return None
        lo64, hi64 = bounds
        first = int(self.maxs.searchsorted(lo64)) if lo64 else 0
        stop = (self.n_chunks if hi64 is None
                else max(first, int(self.mins.searchsorted(hi64))))
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
        mask = self.maxs >= lo64
        if hi64 is not None:
            mask &= self.mins < hi64
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
        if not self.monotone:
            return None
        lo64, hi64 = bounds
        first = int(self.mins.searchsorted(lo64)) if lo64 else 0
        stop = (self.n_chunks if hi64 is None
                else int(self.maxs.searchsorted(hi64)))
        return first, max(first, stop)

    def _compare_covered(self, lo: int, hi: int) -> np.ndarray:
        """Per-chunk mask of :meth:`covered_run`'s chunks by comparing
        every chunk's bounds — the path for maps that are not monotone."""
        bounds = clamp_u64_range(lo, hi)
        if bounds is None or self.n_chunks == 0:
            return np.zeros(self.n_chunks, dtype=bool)
        lo64, hi64 = bounds
        covered = self.mins >= lo64
        if hi64 is not None:
            covered &= self.maxs < hi64
        return covered

    @property
    def storage_bytes(self) -> int:
        return self.mins.nbytes + self.maxs.nbytes + self._sums.nbytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ZoneMap chunks={self.n_chunks} over {self.array!r}>"
        )
