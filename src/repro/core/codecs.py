"""Generation-level compression codecs: encoded storage layouts.

The paper's smart arrays pick a *bit width*; this module widens the
choice to a *layout*.  A :class:`~repro.core.smart_array.StorageGeneration`
carries a ``codec`` tag plus a frozen meta record describing its word
buffer's sections, so one epoch-pinned swap mechanism covers bit-width
repacks and codec changes alike:

* ``"bitpack"`` — the paper's layout; ``bits`` is the element width.
* ``"dict"`` — sorted-dictionary encoding: bit-packed codes followed by
  the packed dictionary (sections 7-8's "dictionary encoding").
* ``"rle"`` — run-length encoding: packed run values followed by packed
  cumulative run ends.
* ``"delta"`` — frame-of-reference: raw per-frame min/max words followed
  by packed per-element deltas (see :mod:`repro.core.delta`).

Every packed section is chunk-padded (``bitpack.words_for``), so the
blocked all-width kernel decodes any chunk span of a section directly.
All sections live in **one** word buffer per replica: a codec generation
is still a single :class:`~repro.numa.allocator.Allocation` and inherits
placement, replication, pinning, and ledger accounting unchanged.

Encoded generations are immutable (writes raise
:class:`~repro.core.errors.CodecWriteError`); the scan operators
evaluate sargable predicates *in the encoded domain* — dictionary-order
code ranges, run-level pruning, frame min/max pruning — via the
``encoded_*`` functions here, and :class:`repro.live.LiveMigrator`
moves arrays between codecs online (mode ``"encode"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import bitpack
from .delta import FRAME_ELEMENTS, delta_frames, frames_for
from .errors import CodecError
from .smart_array import SmartArray, StorageGeneration
from .bitpack_fast import (
    chunk_output,
    unpack_array_fast,
    unpack_chunk_range,
)

#: Every layout a storage generation can carry.
CODECS = ("bitpack", "dict", "rle", "delta")

#: Codecs with an encoded representation (everything but bitpack).
ENCODED_CODECS = ("dict", "rle", "delta")


def check_codec(codec: str) -> str:
    if codec not in CODECS:
        raise CodecError(f"unknown codec {codec!r}; expected one of {CODECS}")
    return codec


# ---------------------------------------------------------------------------
# Meta records: the section geometry of each codec's word buffer.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DictMeta:
    """``[codes @ code_bits][dictionary @ dict_bits]``."""

    length: int
    cardinality: int
    code_bits: int
    dict_bits: int
    value_bits: int

    codec = "dict"

    @property
    def code_words(self) -> int:
        return bitpack.words_for(self.length, self.code_bits)

    @property
    def dict_words(self) -> int:
        return bitpack.words_for(self.cardinality, self.dict_bits)

    @property
    def n_words(self) -> int:
        return self.code_words + self.dict_words


@dataclass(frozen=True)
class RleMeta:
    """``[run values @ value_bits][cumulative run ends @ end_bits]``."""

    length: int
    n_runs: int
    run_value_bits: int
    end_bits: int
    value_bits: int

    codec = "rle"

    @property
    def value_words(self) -> int:
        return bitpack.words_for(self.n_runs, self.run_value_bits)

    @property
    def end_words(self) -> int:
        return bitpack.words_for(self.n_runs, self.end_bits)

    @property
    def n_words(self) -> int:
        return self.value_words + self.end_words


@dataclass(frozen=True)
class DeltaMeta:
    """``[frame refs raw][frame maxs raw][deltas @ delta_bits]``.

    Refs/maxs are raw 64-bit words (one per frame) so frame pruning
    reads them without a decode; ``frame_elements`` must stay a
    multiple of 64 so frame boundaries align with the chunk grid.
    """

    length: int
    n_frames: int
    frame_elements: int
    delta_bits: int
    value_bits: int

    codec = "delta"

    @property
    def delta_words(self) -> int:
        return bitpack.words_for(self.length, self.delta_bits)

    @property
    def n_words(self) -> int:
        return 2 * self.n_frames + self.delta_words


# ---------------------------------------------------------------------------
# Encode: values -> (words, meta, payload_bits)
# ---------------------------------------------------------------------------


#: Dictionary domains whose maximum is below this are ranked by one
#: ``np.bincount`` presence vector (a 2**16-slot count array is 512 KiB)
#: instead of ``np.unique``'s sort — the same cut the grouped reduce
#: uses for direct keys.
_DIRECT_DOMAIN = 1 << 16


def _encode_dict(values: np.ndarray):
    """Sorted-dictionary encode: ``(words, DictMeta, code_bits)``.

    The dictionary is the sorted distinct values and each code the
    value's rank in it.  A domain whose maximum is below
    ``_DIRECT_DOMAIN`` (2**16) is ranked without sorting: one
    ``np.bincount`` presence vector gives the dictionary and its
    exclusive ``cumsum`` the codes.  Larger domains keep
    ``np.unique(return_inverse=True)``; both yield identical words.
    """
    if values.size and int(values.max()) < _DIRECT_DOMAIN:
        small = values.astype(np.uint16)
        present = np.bincount(small) != 0
        rank = np.cumsum(present, dtype=np.uint64) - present
        dictionary = np.flatnonzero(present).astype(np.uint64)
        codes = rank[small]
    else:
        dictionary, codes = np.unique(values, return_inverse=True)
        codes = codes.astype(np.uint64)
    code_bits = max(1, int(dictionary.size - 1).bit_length()) \
        if dictionary.size else 1
    dict_bits = bitpack.max_bits_needed(dictionary) if dictionary.size else 1
    meta = DictMeta(
        length=int(values.size), cardinality=int(dictionary.size),
        code_bits=code_bits, dict_bits=dict_bits, value_bits=dict_bits,
    )
    words = np.empty(meta.n_words, dtype=np.uint64)
    words[:meta.code_words] = bitpack.pack_array(codes, code_bits)
    words[meta.code_words:] = bitpack.pack_array(dictionary, dict_bits)
    return words, meta, code_bits


def _encode_rle(values: np.ndarray):
    if values.size:
        change = np.nonzero(values[1:] != values[:-1])[0]
        run_starts = np.concatenate([[0], change + 1])
        run_ends = np.concatenate(
            [change + 1, [values.size]]
        ).astype(np.uint64)
        run_values = values[run_starts]
    else:
        run_values = np.empty(0, dtype=np.uint64)
        run_ends = np.empty(0, dtype=np.uint64)
    vbits = bitpack.max_bits_needed(run_values) if run_values.size else 1
    ebits = bitpack.max_bits_needed(run_ends) if run_ends.size else 1
    meta = RleMeta(
        length=int(values.size), n_runs=int(run_values.size),
        run_value_bits=vbits, end_bits=ebits, value_bits=vbits,
    )
    words = np.empty(meta.n_words, dtype=np.uint64)
    words[:meta.value_words] = bitpack.pack_array(run_values, vbits)
    words[meta.value_words:] = bitpack.pack_array(run_ends, ebits)
    return words, meta, vbits


def _encode_delta(values: np.ndarray):
    refs, maxs, deltas, delta_bits = delta_frames(values, FRAME_ELEMENTS)
    vbits = bitpack.max_bits_needed(maxs) if maxs.size else 1
    meta = DeltaMeta(
        length=int(values.size), n_frames=int(refs.size),
        frame_elements=FRAME_ELEMENTS, delta_bits=delta_bits,
        value_bits=vbits,
    )
    words = np.empty(meta.n_words, dtype=np.uint64)
    words[:meta.n_frames] = refs
    words[meta.n_frames:2 * meta.n_frames] = maxs
    words[2 * meta.n_frames:] = bitpack.pack_array(deltas, delta_bits)
    return words, meta, delta_bits


def encode_words(values, codec: str):
    """Encode ``values`` under ``codec``: ``(words, meta, payload_bits)``.

    ``payload_bits`` is the generation's ``bits`` — the width of the
    narrow packed payload (codes / run values / deltas), *not* of the
    decoded values (that's ``meta.value_bits``).
    """
    check_codec(codec)
    values = np.ascontiguousarray(values, dtype=np.uint64)
    if codec == "dict":
        return _encode_dict(values)
    if codec == "rle":
        return _encode_rle(values)
    if codec == "delta":
        return _encode_delta(values)
    raise CodecError("bitpack has no encoded meta; use bitpack.pack_array")


# ---------------------------------------------------------------------------
# Decode: words + meta -> values
# ---------------------------------------------------------------------------


def _dict_sections(words, meta: DictMeta):
    return words[:meta.code_words], words[meta.code_words:meta.n_words]


def _rle_sections(words, meta: RleMeta):
    return words[:meta.value_words], words[meta.value_words:meta.n_words]


def _delta_sections(words, meta: DeltaMeta):
    return (words[:meta.n_frames],
            words[meta.n_frames:2 * meta.n_frames],
            words[2 * meta.n_frames:meta.n_words])


def decode_words(words, meta) -> np.ndarray:
    """Fully decode one codec buffer to its logical uint64 values."""
    if isinstance(meta, DictMeta):
        code_sec, dict_sec = _dict_sections(words, meta)
        codes = unpack_array_fast(code_sec, meta.length, meta.code_bits)
        dictionary = unpack_array_fast(
            dict_sec, meta.cardinality, meta.dict_bits
        )
        return dictionary[codes.astype(np.int64)]
    if isinstance(meta, RleMeta):
        value_sec, end_sec = _rle_sections(words, meta)
        values = unpack_array_fast(value_sec, meta.n_runs,
                                   meta.run_value_bits)
        ends = unpack_array_fast(end_sec, meta.n_runs,
                                 meta.end_bits).astype(np.int64)
        if not meta.n_runs:
            return np.empty(0, dtype=np.uint64)
        lengths = np.empty_like(ends)
        lengths[0] = ends[0]
        lengths[1:] = ends[1:] - ends[:-1]
        return np.repeat(values, lengths)
    if isinstance(meta, DeltaMeta):
        refs, _maxs, delta_sec = _delta_sections(words, meta)
        deltas = unpack_array_fast(delta_sec, meta.length, meta.delta_bits)
        if not meta.length:
            return deltas
        per_el = np.repeat(refs, meta.frame_elements)[:meta.length]
        return per_el + deltas
    raise CodecError(f"cannot decode meta {meta!r}")


def decode_chunk_span(words, meta, first: int, count: int,
                      out=None) -> np.ndarray:
    """Decode chunks ``[first, first + count)`` of a codec buffer.

    Mirrors :func:`repro.core.bitpack_fast.unpack_chunk_range`'s
    contract: returns a flat uint64 view of exactly ``count * 64``
    elements (written into ``out`` when given).  Slots beyond the
    logical length decode to zero — the same thing bitpack's zero
    padding yields — so downstream consumers see identical padding
    regardless of layout.
    """
    n = count * bitpack.CHUNK_ELEMENTS
    flat = chunk_output(out, count)
    if count == 0:
        return flat
    start_el = first * bitpack.CHUNK_ELEMENTS
    stop_el = min(meta.length, start_el + n)
    logical = max(0, stop_el - start_el)
    if isinstance(meta, DictMeta):
        code_sec, dict_sec = _dict_sections(words, meta)
        unpack_chunk_range(code_sec, first, count, meta.code_bits, out=flat)
        dictionary = unpack_array_fast(
            dict_sec, meta.cardinality, meta.dict_bits
        )
        # Padding codes are zero (pack_array zero-fills) and cardinality
        # >= 1 whenever any chunk exists, so the gather stays in range.
        flat[:logical] = dictionary[flat[:logical].astype(np.int64)]
    elif isinstance(meta, RleMeta):
        value_sec, end_sec = _rle_sections(words, meta)
        values = unpack_array_fast(value_sec, meta.n_runs,
                                   meta.run_value_bits)
        ends = unpack_array_fast(end_sec, meta.n_runs, meta.end_bits)
        positions = np.arange(start_el, stop_el, dtype=np.uint64)
        run_idx = np.searchsorted(ends, positions, side="right")
        flat[:logical] = values[run_idx]
    elif isinstance(meta, DeltaMeta):
        refs, _maxs, delta_sec = _delta_sections(words, meta)
        unpack_chunk_range(delta_sec, first, count, meta.delta_bits, out=flat)
        frame_chunks = meta.frame_elements // bitpack.CHUNK_ELEMENTS
        frame_ids = (first + np.arange(count)) // frame_chunks
        flat[:logical] += np.repeat(
            refs[frame_ids], bitpack.CHUNK_ELEMENTS
        )[:logical]
    else:
        raise CodecError(f"cannot decode meta {meta!r}")
    flat[logical:] = 0
    return flat


def decode_generation_chunks(gen: StorageGeneration, first: int, count: int,
                             out=None) -> np.ndarray:
    """Chunk-span decode of any generation (bitpack included).

    The migrator's codec-agnostic read path: budgeted copy steps read
    the live generation through this, whatever its layout.
    """
    if gen.codec == "bitpack":
        return unpack_chunk_range(gen.buffers[0], first, count, gen.bits,
                                  out=out)
    return decode_chunk_span(gen.buffers[0], gen.meta, first, count, out=out)


# ---------------------------------------------------------------------------
# Scalar access
# ---------------------------------------------------------------------------


def get_encoded(words, meta, index: int) -> int:
    """Point lookup into a codec buffer (no full decode)."""
    if isinstance(meta, DictMeta):
        code = bitpack.get_scalar(words[:meta.code_words], index,
                                  meta.code_bits)
        return bitpack.get_scalar(
            words[meta.code_words:meta.n_words], code, meta.dict_bits
        )
    if isinstance(meta, RleMeta):
        end_sec = words[meta.value_words:meta.n_words]
        lo, hi = 0, meta.n_runs - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if bitpack.get_scalar(end_sec, mid, meta.end_bits) <= index:
                lo = mid + 1
            else:
                hi = mid
        return bitpack.get_scalar(words[:meta.value_words], lo,
                                  meta.run_value_bits)
    if isinstance(meta, DeltaMeta):
        ref = int(words[index // meta.frame_elements])
        delta_sec = words[2 * meta.n_frames:meta.n_words]
        return ref + bitpack.get_scalar(delta_sec, index, meta.delta_bits)
    raise CodecError(f"cannot read meta {meta!r}")


# ---------------------------------------------------------------------------
# Encoded-domain predicate evaluation
# ---------------------------------------------------------------------------
#
# All bounds arrive pre-clamped by repro.core.scan_ops.clamp_u64_range:
# ``lo64`` is a np.uint64 and ``hi64`` is a np.uint64 or None (unbounded
# above).  Each operator touches only the codec's summary structures
# plus whatever payload it cannot avoid — never a full value decode.


def _dict_code_range(dictionary: np.ndarray, lo64, hi64) -> Tuple[int, int]:
    code_lo = int(np.searchsorted(dictionary, lo64, side="left"))
    if hi64 is None:
        return code_lo, int(dictionary.size)
    return code_lo, int(np.searchsorted(dictionary, hi64, side="left"))


def _rle_run_mask(values: np.ndarray, lo64, hi64) -> np.ndarray:
    mask = values >= lo64
    if hi64 is not None:
        mask &= values < hi64
    return mask


def _rle_run_bounds(ends: np.ndarray):
    starts = np.empty_like(ends)
    if ends.size:
        starts[0] = 0
        starts[1:] = ends[:-1]
    return starts, ends


def encoded_count_in_range(gen: StorageGeneration, lo64, hi64) -> int:
    """COUNT(*) WHERE lo <= v < hi in the encoded domain."""
    words, meta = gen.buffers[0], gen.meta
    if meta.length == 0:
        return 0
    if isinstance(meta, DictMeta):
        code_sec, dict_sec = _dict_sections(words, meta)
        dictionary = unpack_array_fast(
            dict_sec, meta.cardinality, meta.dict_bits
        )
        code_lo, code_hi = _dict_code_range(dictionary, lo64, hi64)
        if code_lo >= code_hi:
            return 0
        codes = unpack_array_fast(code_sec, meta.length, meta.code_bits)
        return int(((codes >= np.uint64(code_lo))
                    & (codes < np.uint64(code_hi))).sum())
    if isinstance(meta, RleMeta):
        value_sec, end_sec = _rle_sections(words, meta)
        values = unpack_array_fast(value_sec, meta.n_runs,
                                   meta.run_value_bits)
        ends = unpack_array_fast(end_sec, meta.n_runs,
                                 meta.end_bits).astype(np.int64)
        mask = _rle_run_mask(values, lo64, hi64)
        starts, ends = _rle_run_bounds(ends)
        return int((ends[mask] - starts[mask]).sum())
    if isinstance(meta, DeltaMeta):
        return _delta_range(gen, lo64, hi64, want_indices=False)
    raise CodecError(f"cannot scan meta {meta!r}")


def encoded_select_in_range(gen: StorageGeneration, lo64, hi64) -> np.ndarray:
    """Matching indices (sorted int64) in the encoded domain."""
    words, meta = gen.buffers[0], gen.meta
    if meta.length == 0:
        return np.empty(0, dtype=np.int64)
    if isinstance(meta, DictMeta):
        code_sec, dict_sec = _dict_sections(words, meta)
        dictionary = unpack_array_fast(
            dict_sec, meta.cardinality, meta.dict_bits
        )
        code_lo, code_hi = _dict_code_range(dictionary, lo64, hi64)
        if code_lo >= code_hi:
            return np.empty(0, dtype=np.int64)
        codes = unpack_array_fast(code_sec, meta.length, meta.code_bits)
        return np.nonzero((codes >= np.uint64(code_lo))
                          & (codes < np.uint64(code_hi)))[0].astype(np.int64)
    if isinstance(meta, RleMeta):
        value_sec, end_sec = _rle_sections(words, meta)
        values = unpack_array_fast(value_sec, meta.n_runs,
                                   meta.run_value_bits)
        ends = unpack_array_fast(end_sec, meta.n_runs,
                                 meta.end_bits).astype(np.int64)
        mask = _rle_run_mask(values, lo64, hi64)
        starts, ends = _rle_run_bounds(ends)
        starts, ends = starts[mask], ends[mask]
        lengths = ends - starts
        total = int(lengths.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        offsets = np.repeat(np.cumsum(lengths) - lengths, lengths)
        return np.repeat(starts, lengths) + np.arange(total) - offsets
    if isinstance(meta, DeltaMeta):
        return _delta_range(gen, lo64, hi64, want_indices=True)
    raise CodecError(f"cannot scan meta {meta!r}")


def _delta_range(gen: StorageGeneration, lo64, hi64, want_indices: bool):
    """Frame-pruned range scan over a delta generation.

    Fully-covered frames contribute without touching their deltas;
    straddling frames decode exactly their own chunk span.
    """
    words, meta = gen.buffers[0], gen.meta
    refs, maxs, _delta_sec = _delta_sections(words, meta)
    touched = maxs >= lo64
    covered = refs >= lo64
    if hi64 is not None:
        touched &= refs < hi64
        covered &= maxs < hi64
    fe = meta.frame_elements
    frame_chunks = fe // bitpack.CHUNK_ELEMENTS
    total = 0
    pieces = []
    for f in np.nonzero(touched)[0]:
        start = int(f) * fe
        stop = min(meta.length, start + fe)
        if covered[f]:
            if want_indices:
                pieces.append(np.arange(start, stop, dtype=np.int64))
            else:
                total += stop - start
            continue
        n_chunks = -(-(stop - start) // bitpack.CHUNK_ELEMENTS)
        frame = decode_chunk_span(
            words, meta, int(f) * frame_chunks, n_chunks
        )[:stop - start]
        mask = frame >= lo64
        if hi64 is not None:
            mask &= frame < hi64
        if want_indices:
            pieces.append(np.nonzero(mask)[0].astype(np.int64) + start)
        else:
            total += int(mask.sum())
    if not want_indices:
        return total
    if not pieces:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(pieces)


def encoded_count_equal(gen: StorageGeneration, value: int) -> int:
    """Occurrences of ``value`` in the encoded domain."""
    if not 0 <= int(value) < 2 ** 64:
        return 0
    v = np.uint64(value)
    hi64 = None if int(value) == 2 ** 64 - 1 else np.uint64(int(value) + 1)
    return encoded_count_in_range(gen, v, hi64)


def encoded_min_max(gen: StorageGeneration) -> Tuple[int, int]:
    """(min, max) from the codec's summary structures alone."""
    words, meta = gen.buffers[0], gen.meta
    if meta.length == 0:
        raise ValueError("min_max over an empty array")
    if isinstance(meta, DictMeta):
        _code_sec, dict_sec = _dict_sections(words, meta)
        dictionary = unpack_array_fast(
            dict_sec, meta.cardinality, meta.dict_bits
        )
        return int(dictionary[0]), int(dictionary[-1])
    if isinstance(meta, RleMeta):
        value_sec, _end_sec = _rle_sections(words, meta)
        values = unpack_array_fast(value_sec, meta.n_runs,
                                   meta.run_value_bits)
        return int(values.min()), int(values.max())
    if isinstance(meta, DeltaMeta):
        refs, maxs, _sec = _delta_sections(words, meta)
        return int(refs.min()), int(maxs.max())
    raise CodecError(f"cannot scan meta {meta!r}")


# ---------------------------------------------------------------------------
# CodecArray: the SmartArray subclass for encoded generations
# ---------------------------------------------------------------------------


class CodecArray(SmartArray):
    """A smart array whose active generation is an encoded layout.

    Reads flow through the same accounting as the bit-packed classes
    (``decode_chunks`` charges superchunk decodes and replica reads
    identically, so every scan/zone-map/query invariant carries over);
    writes raise :class:`~repro.core.errors.CodecWriteError` because
    encoded layouts are immutable — migrate back to bitpack to write.
    """

    def __init__(self, length: int, bits: int, allocation, codec=None,
                 meta=None) -> None:
        super().__init__(length, bits, allocation)
        if codec is not None:
            self._generation = StorageGeneration(
                0, bits, allocation, codec=check_codec(codec), meta=meta
            )

    # Every element and bulk operation is the base class's: it resolves
    # the layout from the pinned generation alone, so a bound method
    # held across a live migration's class swap (a compiled kernel keeps
    # a ``decode_chunks`` per morsel) never looks up one the new class
    # lacks, and writes raise CodecWriteError under the write gate.

    # -- accounting ---------------------------------------------------------

    @property
    def storage_bytes(self) -> int:
        """Bytes of one replica's encoded buffer (all sections)."""
        return int(self._generation.buffers[0].nbytes)

    @property
    def compression_ratio(self) -> float:
        plain = self._length * 8
        return self.storage_bytes / plain if plain else 1.0

    def __repr__(self) -> str:
        return (
            f"<CodecArray codec={self.codec} length={self._length} "
            f"bits={self._bits} placement={self.placement.describe()} "
            f"replicas={self.n_replicas}>"
        )


# ---------------------------------------------------------------------------
# Factory
# ---------------------------------------------------------------------------


def encode_array(values, codec: str, replicated: bool = False,
                 interleaved: bool = False, pinned: Optional[int] = None,
                 allocator=None, toucher_sockets=None) -> SmartArray:
    """Allocate a smart array holding ``values`` under ``codec``.

    The codec sibling of :func:`repro.core.allocate.allocate`: same
    placement flags, but the generation's words hold the encoded layout
    and the concrete class is :class:`CodecArray`.  ``codec="bitpack"``
    falls back to a plain minimum-width allocation.
    """
    check_codec(codec)
    values = np.ascontiguousarray(values, dtype=np.uint64)
    from .allocate import allocate, default_allocator
    from .placement import Placement

    if codec == "bitpack":
        return allocate(
            values.size, replicated=replicated, interleaved=interleaved,
            pinned=pinned, bits=None, values=values, allocator=allocator,
            toucher_sockets=toucher_sockets,
        )
    words, meta, payload_bits = encode_words(values, codec)
    placement = Placement.from_flags(
        replicated=replicated, interleaved=interleaved, pinned=pinned
    )
    if allocator is None:
        allocator = default_allocator()
    allocation = allocator.allocate_words(
        int(words.size), placement, toucher_sockets=toucher_sockets
    )
    for buf in allocation.buffers:
        np.copyto(buf, words)
    return CodecArray(values.size, payload_bits, allocation,
                      codec=codec, meta=meta)
