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
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from . import bitpack
from .allocate import allocate
from .map_api import SUPERCHUNK_ELEMENTS, check_superchunk
from .scan_ops import _range_mask, clamp_u64_range
from .smart_array import SmartArray
from ..obs.registry import registry as _obs_registry
from ..obs.trace import trace


def _non_decreasing(bounds: np.ndarray) -> bool:
    """True when every chunk bound is at least the one before it."""
    return bool((bounds[1:] >= bounds[:-1]).all())


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
    """Per-chunk min/max index over a smart array's contents."""

    def __init__(self, array: SmartArray, mins: SmartArray,
                 maxs: SmartArray) -> None:
        self.array = array
        self.mins = mins
        self.maxs = maxs
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

    @classmethod
    def build(cls, array: SmartArray, allocator=None,
              superchunk=None) -> "ZoneMap":
        """Scan ``array`` once and record each chunk's min/max.

        The zone arrays use the same bit width as the data (zone values
        are data values), so the index costs ``2/64`` of the column.
        The scan decodes ``superchunk // 64`` chunks per blocked-kernel
        call and reduces over a ``(chunks, 64)`` view — no per-chunk
        Python loop.
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
        mins = np.zeros(max(1, n_chunks), dtype=np.uint64)
        maxs = np.zeros(max(1, n_chunks), dtype=np.uint64)
        buf = np.empty(chunks_per_step * bitpack.CHUNK_ELEMENTS,
                       dtype=np.uint64)
        for first in range(0, n_chunks, chunks_per_step):
            n = min(chunks_per_step, n_chunks - first)
            decoded = array.decode_chunks(first, n, out=buf)
            grid = decoded[:n * bitpack.CHUNK_ELEMENTS].reshape(
                n, bitpack.CHUNK_ELEMENTS
            )
            mins[first:first + n] = grid.min(axis=1)
            maxs[first:first + n] = grid.max(axis=1)
        # A trailing partial chunk decodes padding slots too; its zone
        # must come from the real elements only.
        tail = array.length % bitpack.CHUNK_ELEMENTS
        if n_chunks and tail:
            last = buf[
                (n_chunks - 1 - first) * bitpack.CHUNK_ELEMENTS:
            ][:tail]
            mins[n_chunks - 1] = last.min()
            maxs[n_chunks - 1] = last.max()
        # Zone values are *data* values, so the zone arrays use the
        # data's value width.  For bitpack generations that is
        # ``array.bits``; for encoded generations ``bits`` is the
        # narrow payload width (codes/deltas) and packing a zone max
        # into it would overflow — use the decoded-value width instead.
        zbits = array.bits
        if getattr(array.generation, "codec", "bitpack") != "bitpack":
            zbits = (bitpack.max_bits_needed(maxs[:n_chunks])
                     if n_chunks else 1)
        zmins = allocate(n_chunks, bits=zbits, allocator=allocator)
        zmaxs = allocate(n_chunks, bits=zbits, allocator=allocator)
        if n_chunks:
            zmins.fill(mins[:n_chunks])
            zmaxs.fill(maxs[:n_chunks])
        zm = cls(array, zmins, zmaxs)
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

    def _covered_elements(self, chunks: int, last_covered: bool) -> int:
        """Elements in ``chunks`` whole chunks, one of them the trailing
        partial chunk when ``last_covered``."""
        elements = chunks * bitpack.CHUNK_ELEMENTS
        tail = self.array.length % bitpack.CHUNK_ELEMENTS
        if last_covered and tail:
            elements -= bitpack.CHUNK_ELEMENTS - tail
        return elements

    def count_in_range(self, lo: int, hi: int, socket: int = 0,
                       superchunk=None) -> int:
        """COUNT(*) WHERE lo <= v < hi, decoding only candidate chunks.

        Chunks entirely inside the range are counted without decoding
        at all (their zone proves every element matches); the rest are
        decoded in consecutive runs through the blocked kernel.
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
            if cover_stop <= cover_first:
                cover_first = cover_stop = stop  # nothing covered
            total = self._covered_elements(
                cover_stop - cover_first,
                cover_first < cover_stop and cover_stop == self.n_chunks)
            runs = [*_split_run(first, cover_first - first, max_run),
                    *_split_run(cover_stop, stop - cover_stop, max_run)]
        else:
            candidates = self._compare_candidates(lo, hi)
            if candidates.size == 0:
                return 0
            covered = self._compare_covered(lo, hi)[candidates]
            total = self._covered_elements(
                int(covered.sum()),
                bool(covered[-1]) and candidates[-1] == self.n_chunks - 1)
            runs = _chunk_runs(candidates[~covered], max_run)
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
            runs = _chunk_runs(candidates, max_run)
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
        return self.mins.storage_bytes + self.maxs.storage_bytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ZoneMap chunks={self.n_chunks} over {self.array!r}>"
        )
