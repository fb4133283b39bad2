"""Incremental online migration of live smart arrays.

A :class:`Migration` moves one array to a target
:class:`~repro.adapt.selector.Configuration` (placement + bit width) in
budgeted steps that never stall the scan path:

* **repack mode** (bit width changes, or any placement change involving
  replication): a fresh allocation is built at the target configuration
  and filled a run of chunks per step.  The 64-element chunk alignment
  property makes this exact: chunk ``c`` occupies words ``[c*bits,
  (c+1)*bits)`` at *any* width, so each step decodes a chunk run from
  the live generation, packs it at the target width, and writes the
  target's words for exactly that run — no partial-word seams between
  steps.
* **move mode** (same bit width, single-buffer placement to
  single-buffer placement): no data is copied at all; the allocation's
  pages are re-homed in place through the simulated ``move_pages``
  machinery of :mod:`repro.numa.migration`, with the memory ledger kept
  exact per page.
* **encode mode** (the target names a codec from
  :mod:`repro.core.codecs`): budgeted steps decode the live generation
  — whatever its current layout — into a staging buffer; mirrored
  writes land in staging too, so when the last chunk arrives the final
  step encodes staging under the target codec, allocates the encoded
  words at the target placement, and commits a codec-tagged
  generation.  Readers never see a partial encode: until the commit
  they scan the old generation, after it the encoded one.

Repack-mode reads go through the codec-aware
:func:`repro.core.codecs.decode_generation_chunks`, so migrating an
encoded array *back* to bitpack (required before writes) is just a
repack whose source happens to be encoded.

Write policy (dual-write): writers always hit the live generation; the
array additionally mirrors every write into the in-flight migration's
target under the same write gate, so the copy loop and concurrent
writers can interleave in any order (a copy step re-decodes the live
generation, so it re-applies any earlier write it overlaps).  A written
value that cannot fit the target width **aborts** the migration — the
array stays on its current generation, untouched.

Commit: when the last chunk (or page) lands, the step swaps the
array's storage generation atomically under the write gate and bumps
its epoch.  A migration preserves every value, so the array's zone map
(``SmartArray.zone_map``, kept exact by every write, mirrored ones
included) describes the new storage as well as the old and stays.
Readers that pinned the old generation keep decoding it at the old
width; its allocation is freed when the last pin drains.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..adapt.selector import Configuration
from ..core import bitpack
from ..core.codecs import check_codec, decode_generation_chunks, encode_words
from ..core.errors import AllocationError, ValueOverflowError
from ..core.smart_array import SmartArray, StorageGeneration, _scalar_init
from ..numa.migration import (
    desired_page_sockets,
    move_pages,
    pages_remaining,
)
from ..obs.registry import registry as _obs_registry
from ..obs.trace import trace


class MigrationError(RuntimeError):
    """Raised for invalid migration requests (e.g. one already running)."""


@dataclass(frozen=True)
class MigrationBudget:
    """Per-step work cap, keeping each step's stall window bounded.

    ``max_chunks_per_step`` bounds the chunks repacked (or pages moved)
    under the write gate in one step; ``max_bytes_in_flight`` bounds the
    decoded staging bytes of a step (each chunk decodes to 512 bytes),
    whichever is smaller wins.
    """

    max_chunks_per_step: int = 64
    max_bytes_in_flight: int = 1 << 20

    def __post_init__(self) -> None:
        if self.max_chunks_per_step < 1:
            raise ValueError("max_chunks_per_step must be >= 1")
        if self.max_bytes_in_flight < bitpack.CHUNK_ELEMENTS * 8:
            raise ValueError(
                "max_bytes_in_flight must cover at least one decoded "
                f"chunk ({bitpack.CHUNK_ELEMENTS * 8} bytes)"
            )

    @property
    def chunks_per_step(self) -> int:
        by_bytes = self.max_bytes_in_flight // (bitpack.CHUNK_ELEMENTS * 8)
        return max(1, min(self.max_chunks_per_step, by_bytes))

    def pages_per_step(self, page_bytes: int) -> int:
        by_bytes = self.max_bytes_in_flight // max(1, page_bytes)
        return max(1, min(self.max_chunks_per_step, by_bytes))


class Migration:
    """One in-flight (or finished) migration of one smart array.

    Construct through :meth:`LiveMigrator.start`; drive with
    :meth:`step` (returns True while more steps remain) or
    :meth:`run` (to completion).  Terminal states: ``completed`` or
    ``aborted``.
    """

    def __init__(self, migrator: "LiveMigrator", array: SmartArray,
                 target: Configuration, budget: MigrationBudget,
                 reason: str,
                 rollback_of: Optional["Migration"] = None) -> None:
        self.migrator = migrator
        self.array = array
        self.source = Configuration(
            array.placement, array.bits,
            getattr(array.generation, "codec", "bitpack"),
        )
        self.target = target
        self.budget = budget
        self.reason = reason
        #: Set when this migration undoes a previous one (daemon
        #: rollback); completion then counts as a rollback, not a
        #: regular migration.
        self.rollback_of = rollback_of
        self.state = "pending"
        self.abort_reason: Optional[str] = None
        self.chunks_repacked = 0
        self.pages_moved = 0
        self.steps = 0
        self._next_chunk = 0
        self._total_chunks = bitpack.chunks_for(array.length)
        self._new_allocation = None
        self._desired_sockets = None
        self._original_sockets = None
        self._staging = None
        same_bits = target.bits == array.bits
        single_to_single = (
            array.n_replicas == 1 and not target.placement.is_replicated
        )
        #: "encode" decodes into staging and commits an encoded
        #: generation; "move" re-homes pages in place; "repack" copies
        #: into a fresh bit-packed allocation at the target
        #: width/placement.
        if getattr(target, "codec", "bitpack") != "bitpack":
            self.mode = "encode"
        elif self.source.codec != "bitpack":
            self.mode = "repack"
        else:
            self.mode = "move" if same_bits and single_to_single else "repack"

    # -- progress --------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.state in ("completed", "aborted")

    @property
    def total_chunks(self) -> int:
        return self._total_chunks

    def describe(self) -> str:
        return (
            f"{self.source.describe()} -> {self.target.describe()} "
            f"[{self.mode}] {self.state}"
        )

    # -- lifecycle (driven by LiveMigrator) ------------------------------

    def _start(self) -> None:
        array = self.array
        allocator = self.migrator.allocator
        if self.mode == "encode":
            # The encoded footprint is only known once staging is full,
            # so nothing is allocated up front: the final step encodes
            # staging and allocates then (an AllocationError at that
            # point aborts, leaving the array on its old generation).
            self._staging = np.zeros(array.length, dtype=np.uint64)
        elif self.mode == "repack":
            # May raise AllocationError when the target does not fit —
            # nothing was registered yet, so the array is unaffected.
            self._new_allocation = allocator.allocate_words(
                bitpack.words_for(array.length, self.target.bits),
                self.target.placement,
            )
        else:
            page_map = array.allocation.page_maps[0]
            self._desired_sockets = desired_page_sockets(
                self.target.placement, page_map.n_pages, allocator.machine
            )
            self._original_sockets = page_map.page_to_socket.copy()
        with array._write_gate:
            if array._migration is not None:
                # Lost the race; undo our side effects.
                if self._new_allocation is not None:
                    allocator.free(self._new_allocation)
                raise MigrationError(
                    "a migration is already in flight for this array"
                )
            array._migration = self
            self.state = "running"
        self.migrator._started.add(1)

    def step(self) -> bool:
        """One budgeted increment; True while the migration still runs.

        Work happens under the array's write gate (so copy steps and
        concurrent writers serialize); the gate is released — and the
        GIL yielded — between steps, which is the cooperative-yield
        contract that keeps readers and writers flowing mid-migration.
        """
        if self.done:
            return False
        with trace("live.migration_step",
                   array=self.array.stats.array_label, mode=self.mode,
                   step=self.steps):
            with self.array._write_gate:
                if self.state != "running":
                    return False  # aborted by a mirrored write
                self.steps += 1
                if self.mode == "repack":
                    self._step_repack_locked()
                elif self.mode == "encode":
                    self._step_encode_locked()
                else:
                    self._step_move_locked()
        time.sleep(0)  # cooperative yield between gate acquisitions
        return not self.done

    def run(self) -> bool:
        """Step to a terminal state; True if the migration completed."""
        with trace("live.migration", array=self.array.stats.array_label,
                   mode=self.mode, reason=self.reason):
            while self.step():
                pass
        return self.state == "completed"

    # -- repack mode -----------------------------------------------------

    def _step_repack_locked(self) -> None:
        array = self.array
        tbits = self.target.bits
        first = self._next_chunk
        count = min(self.budget.chunks_per_step, self._total_chunks - first)
        if count > 0:
            gen = array.generation
            # Codec-aware: decodes bitpack and encoded generations alike
            # (slots past the logical length come back zeroed either
            # way, so pack_array's overflow check sees only real data).
            values = decode_generation_chunks(gen, first, count)
            try:
                packed = bitpack.pack_array(values, tbits)
            except ValueOverflowError as exc:
                self._abort_locked(
                    f"chunks {first}..{first + count - 1} do not fit "
                    f"target width {tbits}: {exc}"
                )
                return
            lo, hi = first * tbits, (first + count) * tbits
            for buf in self._new_allocation.buffers:
                buf[lo:hi] = packed
            self._next_chunk = first + count
            self.chunks_repacked += count
            self.migrator._chunks.add(count)
        if self._next_chunk >= self._total_chunks:
            self._commit_locked()

    # -- encode mode -----------------------------------------------------

    def _step_encode_locked(self) -> None:
        array = self.array
        first = self._next_chunk
        count = min(self.budget.chunks_per_step, self._total_chunks - first)
        if count > 0:
            flat = decode_generation_chunks(array.generation, first, count)
            start = first * bitpack.CHUNK_ELEMENTS
            stop = min(array.length, start + count * bitpack.CHUNK_ELEMENTS)
            self._staging[start:stop] = flat[: stop - start]
            self._next_chunk = first + count
            self.chunks_repacked += count
            self.migrator._chunks.add(count)
        if self._total_chunks - self._next_chunk <= 0:
            self._commit_encode_locked()

    def _commit_encode_locked(self) -> None:
        """Encode staging, allocate, and swap — still under the gate.

        Staging holds every chunk plus any mirrored writes by now; a
        failed allocation aborts with the array untouched (no target
        allocation existed before this point).
        """
        codec = getattr(self.target, "codec", "bitpack")
        words, meta, payload_bits = encode_words(self._staging, codec)
        try:
            self._new_allocation = self.migrator.allocator.allocate_words(
                int(words.size), self.target.placement,
            )
        except AllocationError as exc:
            self._abort_locked(f"encoded target does not fit: {exc}")
            return
        for buf in self._new_allocation.buffers:
            np.copyto(buf, words)
        self._commit_locked(bits=payload_bits, codec=codec, meta=meta)

    # -- move mode -------------------------------------------------------

    def _step_move_locked(self) -> None:
        array = self.array
        allocator = self.migrator.allocator
        page_map = array.allocation.page_maps[0]
        try:
            moved = move_pages(
                allocator.ledger, page_map, self._desired_sockets,
                max_pages=self.budget.pages_per_step(page_map.page_bytes),
            )
        except AllocationError as exc:
            # Destination socket full: put the already-moved pages back
            # (best effort — their original homes were just vacated) and
            # abort with the array exactly where it started.
            try:
                move_pages(allocator.ledger, page_map,
                           self._original_sockets)
            except AllocationError:
                pass
            self._abort_locked(f"page move failed: {exc}")
            return
        self.pages_moved += moved
        self.migrator._pages.add(moved)
        if pages_remaining(page_map, self._desired_sockets) == 0:
            self._commit_locked()

    # -- commit / abort (write gate held) --------------------------------

    def _commit_locked(self, bits: Optional[int] = None,
                       codec: str = "bitpack", meta=None) -> None:
        array = self.array
        if self.mode in ("repack", "encode"):
            new_gen = StorageGeneration(
                array.generation_epoch + 1,
                self.target.bits if bits is None else bits,
                self._new_allocation, codec=codec, meta=meta,
            )
            allocator = self.migrator.allocator

            def reclaim(gen, _allocator=allocator):
                # The retired generation's allocation may come from a
                # different allocator than ours (the array's original
                # one); tolerate an unknown allocation rather than crash
                # a reader's unpin.
                try:
                    _allocator.free(gen.allocation)
                except AllocationError:
                    pass
        else:
            # In-place page moves: same allocation, new placement label,
            # new epoch.  Nothing to reclaim when the old handle drains.
            array.allocation.placement = self.target.placement
            new_gen = StorageGeneration(
                array.generation_epoch + 1, self.target.bits,
                array.allocation,
            )
            reclaim = None
        array._install_generation(new_gen, reclaim=reclaim)
        array._migration = None
        self.state = "completed"
        if self.rollback_of is not None:
            self.migrator._rolled_back.add(1)
        else:
            self.migrator._completed.add(1)

    def _abort_locked(self, reason: str) -> None:
        if self._new_allocation is not None:
            try:
                self.migrator.allocator.free(self._new_allocation)
            except AllocationError:
                pass
            self._new_allocation = None
        self.array._migration = None
        self.state = "aborted"
        self.abort_reason = reason
        self.migrator._aborted.add(1)

    # -- dual-write mirroring (called by SmartArray under the gate) ------

    def mirror_write(self, index: int, value: int) -> None:
        if self.state != "running":
            return
        if self.mode == "encode":
            # Staging is plain uint64 — every in-range value fits, so
            # encode-mode mirrors can never abort.  Chunks not yet
            # copied will re-read the live generation (which already
            # holds this write) anyway; the assignment covers chunks
            # staged before the write landed.
            self._staging[index] = np.uint64(value)
            return
        if self.mode != "repack":
            return
        try:
            _scalar_init(self._new_allocation.buffers, index, value,
                         self.target.bits)
        except ValueOverflowError:
            self._abort_locked(
                f"concurrent write of {value} does not fit target width "
                f"{self.target.bits}"
            )

    def mirror_scatter(self, indices, values) -> None:
        if self.state != "running":
            return
        if self.mode == "encode":
            self._staging[np.ascontiguousarray(indices, dtype=np.int64)] = \
                np.asarray(values, dtype=np.uint64)
            return
        if self.mode != "repack":
            return
        try:
            for buf in self._new_allocation.buffers:
                bitpack.scatter(buf, indices, values, self.target.bits)
        except ValueOverflowError as exc:
            self._abort_locked(
                f"concurrent scatter does not fit target width "
                f"{self.target.bits}: {exc}"
            )

    def mirror_fill(self, values) -> None:
        if self.state != "running":
            return
        if self.mode == "encode":
            self._staging[:] = np.asarray(values, dtype=np.uint64)
            return
        if self.mode != "repack":
            return
        try:
            packed = bitpack.pack_array(
                np.ascontiguousarray(values, dtype=np.uint64),
                self.target.bits,
            )
        except ValueOverflowError as exc:
            self._abort_locked(
                f"concurrent fill does not fit target width "
                f"{self.target.bits}: {exc}"
            )
            return
        for buf in self._new_allocation.buffers:
            np.copyto(buf, packed)


class LiveMigrator:
    """Factory/driver for online migrations sharing one allocator.

    Create it with the allocator the arrays were allocated from, so the
    retired generations' storage is returned to the same memory ledger
    it was charged against.
    """

    def __init__(self, allocator, registry=None) -> None:
        self.allocator = allocator
        reg = registry if registry is not None else _obs_registry()
        self._started = reg.counter("live.migrations_started")
        self._completed = reg.counter("live.migrations_completed")
        self._aborted = reg.counter("live.migrations_aborted")
        self._rolled_back = reg.counter("live.migrations_rolled_back")
        self._chunks = reg.counter("live.chunks_repacked")
        self._pages = reg.counter("live.pages_moved")

    def start(self, array: SmartArray, target: Configuration,
              budget: Optional[MigrationBudget] = None,
              reason: str = "",
              rollback_of: Optional[Migration] = None) -> Migration:
        """Begin an incremental migration; drive it with ``step()``.

        Raises :class:`MigrationError` if one is already in flight for
        ``array``, and :class:`~repro.core.errors.AllocationError` when
        the target configuration does not fit the machine — in both
        cases the array is left untouched.
        """
        if array.migration is not None:
            raise MigrationError(
                "a migration is already in flight for this array"
            )
        bitpack.check_bits(target.bits)
        check_codec(getattr(target, "codec", "bitpack"))
        migration = Migration(self, array, target,
                              budget or MigrationBudget(), reason,
                              rollback_of=rollback_of)
        migration._start()
        return migration

    def migrate(self, array: SmartArray, target: Configuration,
                budget: Optional[MigrationBudget] = None,
                reason: str = "") -> Migration:
        """Run a migration to its terminal state; returns the record."""
        migration = self.start(array, target, budget=budget, reason=reason)
        migration.run()
        return migration
