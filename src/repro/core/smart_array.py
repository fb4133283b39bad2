"""Smart arrays: the paper's core abstraction (sections 3 and 4).

A :class:`SmartArray` is a fixed-length array of unsigned integers whose
*smart functionalities* — NUMA-aware placement and bit compression — are
configured at allocation time and hidden behind one unified API:

* ``allocate(length, replicated, interleaved, pinned, bits)`` — factory
  choosing the concrete subclass and placing the replica(s);
* ``get_replica(socket)`` — the replica a thread on ``socket`` should
  read (the paper's ``getReplica()``);
* ``get(index, replica)`` / ``init(index, value)`` / ``unpack(chunk,
  replica, out)`` — paper Functions 1, 2, 3.

Concrete subclasses mirror the paper's UML (Fig. 9):
:class:`BitCompressedArray` covers the general 1..64-bit cases, and
:class:`Uncompressed32Array` / :class:`Uncompressed64Array` specialize
32 and 64 bits, where elements map directly onto native integers and
``get`` needs no shifting or masking.

Bulk NumPy-level operations (``fill``, ``to_numpy``, ``gather_many``)
extend the paper's scalar API; they are the vectorized equivalents the
functional path uses for realistic data sizes, and they are verified
element-for-element against the scalar kernels in the test suite.
"""

from __future__ import annotations

import collections
import threading
import weakref
from typing import Optional, Sequence

import numpy as np

from . import bitpack
from .errors import IndexOutOfRangeError, ReplicaError
from .placement import Placement
from .stats import AccessStats
from ..numa.allocator import Allocation
from ..obs.registry import registry as _obs_registry
from ..obs.trace import TRACER


#: Generation unpins requested from weakref finalizers.  A finalizer
#: runs on whatever thread triggers garbage collection — possibly one
#: currently holding the generation's own lock or its array's
#: ``_gen_lock`` (the drain callback takes both) — so finalizers must
#: never call :meth:`StorageGeneration.unpin` synchronously: a plain
#: ``threading.Lock`` is not reentrant and the thread would deadlock on
#: itself.  ``deque.append`` is atomic, so queueing needs no lock.
_DEFERRED_UNPINS: "collections.deque" = collections.deque()


def queue_unpin(generation: "StorageGeneration") -> None:
    """GC-safe unpin for weakref finalizers: defer, never block."""
    _DEFERRED_UNPINS.append(generation)


def flush_deferred_unpins() -> None:
    """Apply queued finalizer unpins.  Called from pin/install paths
    *before* any generation or array lock is taken."""
    while True:
        try:
            gen = _DEFERRED_UNPINS.popleft()
        except IndexError:
            return
        gen.unpin()


class StorageGeneration:
    """One immutable storage configuration of a smart array.

    A generation couples a bit width with the allocation holding the
    packed words for that width: the pair must be read together, because
    decoding a buffer with the wrong width produces garbage that looks
    like data.  Live migration (see :mod:`repro.live`) installs a new
    generation atomically; readers that captured the old one keep
    decoding it with the old width until they finish.

    Generations are reference-counted through :meth:`pin` / :meth:`unpin`
    so a retired generation's allocation is reclaimed only once the last
    in-flight reader drains (``on_drain`` fires exactly once, when
    ``retired`` and the pin count reaches zero).
    """

    def __init__(self, epoch: int, bits: int, allocation: Allocation,
                 on_drain=None, codec: str = "bitpack", meta=None) -> None:
        self.epoch = int(epoch)
        self.bits = bitpack.check_bits(bits)
        self.allocation = allocation
        #: Storage layout of the words: ``"bitpack"`` (the paper's
        #: layout — ``bits`` is the element width) or one of the
        #: encoded layouts from :mod:`repro.core.codecs` (``"dict"``,
        #: ``"rle"``, ``"delta"``), where ``bits`` is the payload width
        #: and ``meta`` carries the codec's section geometry.
        self.codec = str(codec)
        self.meta = meta
        if self.codec != "bitpack" and meta is None:
            raise ValueError(f"codec {codec!r} generation requires meta")
        self._on_drain = on_drain
        self._pins = 0
        self._retired = False
        self._drained = False
        self._lock = threading.Lock()

    @property
    def value_bits(self) -> int:
        """Width of the *decoded* values (== ``bits`` for bitpack).

        Encoded generations pack a payload narrower than the values it
        represents (dictionary codes, run indexes, frame deltas); any
        consumer specializing arithmetic on element width — e.g. the
        compiled query kernels' overflow-free sum folds — must use this,
        never :attr:`bits`.
        """
        if self.codec == "bitpack":
            return self.bits
        return self.meta.value_bits

    @property
    def buffers(self) -> Sequence[np.ndarray]:
        return self.allocation.buffers

    @property
    def n_replicas(self) -> int:
        return self.allocation.n_replicas

    def buffer_for_socket(self, socket: int) -> np.ndarray:
        return self.allocation.buffer_for_socket(socket)

    @property
    def pin_count(self) -> int:
        return self._pins

    @property
    def retired(self) -> bool:
        return self._retired

    def pin(self) -> "StorageGeneration":
        with self._lock:
            self._pins += 1
        return self

    def unpin(self) -> None:
        fire = False
        with self._lock:
            if self._pins <= 0:
                raise ValueError("unpin without matching pin")
            self._pins -= 1
            if self._retired and self._pins == 0 and not self._drained:
                self._drained = True
                fire = True
        if fire and self._on_drain is not None:
            self._on_drain(self)

    def retire(self) -> None:
        fire = False
        with self._lock:
            self._retired = True
            if self._pins == 0 and not self._drained:
                self._drained = True
                fire = True
        if fire and self._on_drain is not None:
            self._on_drain(self)

    def __repr__(self) -> str:
        codec = f" codec={self.codec}" if self.codec != "bitpack" else ""
        return (
            f"<StorageGeneration epoch={self.epoch} bits={self.bits}"
            f"{codec} pins={self._pins} retired={self._retired}>"
        )


def _scalar_get(buf: np.ndarray, index: int, bits: int) -> int:
    """Generic element load at any width (subclass fast paths bypass it)."""
    if bits == 64:
        return int(buf[index])
    if bits == 32:
        return int(buf.view(np.uint32)[index])
    return bitpack.get_scalar(buf, index, bits)


def _scalar_init(buffers, index: int, value: int, bits: int) -> None:
    """Generic element store at any width into every buffer."""
    if bits == 64:
        value = bitpack.check_value(value, 64)
        for buf in buffers:
            buf[index] = np.uint64(value)
    elif bits == 32:
        value = bitpack.check_value(value, 32)
        for buf in buffers:
            buf.view(np.uint32)[index] = np.uint32(value)
    else:
        bitpack.init_scalar(buffers, index, value, bits)


def _scalar_unpack(buf: np.ndarray, chunk: int, bits: int,
                   out=None) -> np.ndarray:
    """Generic chunk unpack at any width."""
    if bits in (32, 64):
        if out is None:
            out = np.empty(bitpack.CHUNK_ELEMENTS, dtype=np.uint64)
        start = chunk * bitpack.CHUNK_ELEMENTS
        src = buf if bits == 64 else buf.view(np.uint32)
        out[:] = src[start:start + bitpack.CHUNK_ELEMENTS]
        return out
    return bitpack.unpack_chunk_scalar(buf, chunk, bits, out=out)


# Every read path resolves (layout, width, buffer) through one
# generation object — never through the array's concrete class, which a
# live migration may have already swapped for the *next* generation.
# These helpers are the codec-aware analogue of passing ``gen.bits``
# everywhere: a reader holding (old class, new gen) or (new class, old
# gen) mid-swap still decodes correctly because only ``gen`` decides.

def _gen_scalar_get(gen: "StorageGeneration", buf: np.ndarray,
                    index: int) -> int:
    if gen.codec != "bitpack":
        from .codecs import get_encoded
        return get_encoded(buf, gen.meta, index)
    return _scalar_get(buf, index, gen.bits)


def _gen_unpack(gen: "StorageGeneration", buf: np.ndarray, chunk: int,
                out=None) -> np.ndarray:
    if gen.codec != "bitpack":
        from .codecs import decode_chunk_span
        return decode_chunk_span(buf, gen.meta, chunk, 1, out=out)
    return _scalar_unpack(buf, chunk, gen.bits, out=out)


def _gen_decode_span(gen: "StorageGeneration", buf: np.ndarray, chunk: int,
                     n_chunks: int, out=None) -> np.ndarray:
    if gen.codec != "bitpack":
        from .codecs import decode_chunk_span
        return decode_chunk_span(buf, gen.meta, chunk, n_chunks, out=out)
    from .bitpack_fast import unpack_chunk_range
    return unpack_chunk_range(buf, chunk, n_chunks, gen.bits, out=out)


def _check_gen_writable(gen: "StorageGeneration") -> None:
    """Writes resolve the layout under the gate too: a writer racing a
    just-committed encode migration must fail cleanly, never scribble
    bit-packed words over an encoded buffer."""
    if gen.codec != "bitpack":
        from .errors import CodecWriteError
        raise CodecWriteError(
            f"array is stored under codec {gen.codec!r}; encoded layouts "
            "are immutable — migrate back to bitpack to write"
        )


class SmartArray:
    """The smart array (paper Fig. 9, left box).

    Holds the placement flags, the bit width, and one word buffer per
    replica.  Construction goes through
    :func:`repro.core.allocate.allocate` (also exported as
    ``SmartArray.allocate``), which picks the concrete subclass.
    """

    #: Lock stripes for :meth:`init_locked`.  The paper suggests "locks,
    #: e.g., one per chunk" (section 4.2); a fixed stripe pool indexed by
    #: chunk bounds memory while preserving the per-chunk granularity
    #: (two writers conflict only when their chunks collide mod the pool
    #: size).
    _LOCK_STRIPES = 64

    def __init__(self, length: int, bits: int, allocation: Allocation) -> None:
        if length < 0:
            raise ValueError(f"length must be >= 0, got {length}")
        self._length = int(length)
        #: Generation 0: the configuration the array was allocated with.
        #: ``_bits`` / ``_allocation`` are read through the active
        #: generation so live migration can swap both atomically.
        self._generation = StorageGeneration(0, bits, allocation)
        self._gen_lock = threading.RLock()
        #: Single write gate: every mutation (init/fill/scatter) and
        #: every migration copy step serializes here, which is what
        #: makes dual-writing into an in-flight migration's target
        #: race-free.  See docs/API.md "Live adaptation: write policy".
        self._write_gate = threading.Lock()
        #: The column's :class:`~repro.core.zonemap.ZoneMap`, or ``None``
        #: until a table indexes it.  Every write replaces it, under the
        #: write gate, with a map that is exact for the new contents, so
        #: a reader that loads it once plans from one consistent
        #: snapshot; a migration preserves values and leaves it alone.
        self.zone_map = None
        #: The in-flight migration (repro.live.Migration) or None.
        self._migration = None
        #: Retired generations still pinned by in-flight readers.
        self._retired_generations = []
        self._init_locks = [threading.Lock() for _ in range(self._LOCK_STRIPES)]
        #: Deterministic operation counters (see repro.core.stats) — a
        #: view over labelled counters in the default metrics registry.
        self.stats = AccessStats()
        #: Elements decoded per replica by the bulk-span scan engine —
        #: lets tests prove that every worker read its socket-local
        #: replica (the paper's ``getReplica()``-at-batch-start
        #: discipline), not just that results came out right.  One
        #: registry counter per replica, all sharing one lock so
        #: :meth:`reset_replica_reads` stays atomic as a group.
        self._replica_reads_lock = threading.Lock()
        reg = _obs_registry()
        self._pin_counter = reg.counter(
            "live.reader_pins", array=self.stats.array_label,
        )
        self._replica_read_counters = []
        self._replica_finalizer = None
        self._bind_replica_counters(allocation.n_replicas)

    def _bind_replica_counters(self, n_replicas: int) -> None:
        """(Re)create per-replica read counters for ``n_replicas``.

        Called at construction and again when a migration installs a
        generation with a different replica count.  Counters are only
        ever added (registry counters are cheap and the finalizer drops
        every key this array ever registered), so counts survive a
        replicated -> single -> replicated round trip.
        """
        reg = _obs_registry()
        while len(self._replica_read_counters) < n_replicas:
            i = len(self._replica_read_counters)
            self._replica_read_counters.append(
                reg.counter(
                    "core.replica_read_elements",
                    lock=self._replica_reads_lock,
                    array=self.stats.array_label, replica=i,
                )
            )
        if self._replica_finalizer is not None:
            self._replica_finalizer.detach()
        self._replica_finalizer = weakref.finalize(
            self, reg.drop,
            tuple(c.key for c in self._replica_read_counters)
            + (self._pin_counter.key,),
        )

    # -- basic properties (paper: getLength, getBits, placement flags) --

    @property
    def length(self) -> int:
        return self._length

    def get_length(self) -> int:
        """Paper-style accessor; same as :attr:`length`."""
        return self._length

    @property
    def _bits(self) -> int:
        return self._generation.bits

    @property
    def _allocation(self) -> Allocation:
        return self._generation.allocation

    @property
    def bits(self) -> int:
        return self._bits

    def get_bits(self) -> int:
        """Paper-style accessor; same as :attr:`bits`."""
        return self._bits

    @property
    def codec(self) -> str:
        """Active generation's storage layout (``"bitpack"`` unless the
        array was encoded by :mod:`repro.core.codecs`)."""
        return self._generation.codec

    @property
    def value_bits(self) -> int:
        """Width of decoded values; differs from :attr:`bits` only for
        encoded generations (see :attr:`StorageGeneration.value_bits`)."""
        return self._generation.value_bits

    # -- storage generations (live-migration support) -----------------------

    @property
    def generation(self) -> StorageGeneration:
        """The active storage generation (epoch-stamped bits+allocation)."""
        return self._generation

    @property
    def generation_epoch(self) -> int:
        return self._generation.epoch

    def pin_generation(self) -> StorageGeneration:
        """Pin and return the active generation for a read operation.

        The caller must :meth:`StorageGeneration.unpin` when done (use
        ``try/finally``).  While pinned, the generation's buffers and
        bit width stay a consistent snapshot even if a live migration
        swaps the array underneath; the allocation is not reclaimed
        until every pin drains.
        """
        flush_deferred_unpins()
        with self._gen_lock:
            gen = self._generation.pin()
        self._pin_counter.add(1)
        return gen

    @property
    def migration(self):
        """The in-flight live migration, or None."""
        return self._migration

    def _install_generation(self, new_gen: StorageGeneration,
                            reclaim=None) -> StorageGeneration:
        """Atomically swap the active generation (migration commit point).

        Retires the old generation; when its pin count drains,
        ``reclaim(old_gen)`` runs (after the generation has been removed
        from the retired list).  Also re-shapes the concrete class and
        the per-replica counters to the new configuration.  Returns the
        old generation.
        """
        flush_deferred_unpins()
        with self._gen_lock:
            old = self._generation
            self._generation = new_gen
            self.__class__ = concrete_class_for_generation(new_gen)
            self._bind_replica_counters(new_gen.n_replicas)
            self._retired_generations.append(old)

            def _drain(gen, _reclaim=reclaim):
                with self._gen_lock:
                    try:
                        self._retired_generations.remove(gen)
                    except ValueError:
                        pass
                if _reclaim is not None:
                    _reclaim(gen)

            old._on_drain = _drain
            old.retire()
        return old

    @property
    def placement(self) -> Placement:
        return self._allocation.placement

    @property
    def replicated(self) -> bool:
        return self.placement.is_replicated

    @property
    def interleaved(self) -> bool:
        return self.placement.is_interleaved

    @property
    def pinned(self) -> Optional[int]:
        return self.placement.socket if self.placement.is_pinned else None

    @property
    def allocation(self) -> Allocation:
        return self._allocation

    @property
    def n_replicas(self) -> int:
        return self._allocation.n_replicas

    # -- memory accounting ------------------------------------------------

    @property
    def storage_bytes(self) -> int:
        """Bytes of one replica's packed storage."""
        return bitpack.storage_bytes(self._length, self._bits)

    @property
    def physical_bytes(self) -> int:
        """Total bytes across replicas (replication's footprint cost)."""
        return self.storage_bytes * self.n_replicas

    @property
    def compression_ratio(self) -> float:
        """Packed bytes of one replica over uncompressed 64-bit bytes —
        the paper's ``r`` in section 6.2 (1.0 means uncompressed)."""
        return self._bits / bitpack.WORD_BITS

    # -- replica selection --------------------------------------------------

    def get_replica(self, socket: int = 0) -> np.ndarray:
        """Word buffer a thread running on ``socket`` should use.

        For replicated arrays this is the socket-local replica; for all
        other placements the single buffer (paper section 4.3).
        """
        return self._allocation.buffer_for_socket(socket)

    def replica_index_for_socket(self, socket: int) -> int:
        return self._allocation.replica_for_socket(socket)

    @property
    def replica_read_elements(self) -> Sequence[int]:
        """Per-replica decoded-element counts (scan-engine reads only)."""
        return tuple(
            c.value for c in self._replica_read_counters[:self.n_replicas]
        )

    def reset_replica_reads(self) -> None:
        """Zero the per-replica read counters (start of a measured region).

        Takes the lock shared by every replica's counter: resetting the
        counters individually would let a concurrent scan land between
        two resets and leave the group inconsistent.
        """
        with self._replica_reads_lock:
            for counter in self._replica_read_counters:
                counter.store_under_lock(0)

    def _note_replica_read(self, buf: np.ndarray, n_elements: int,
                           gen: Optional[StorageGeneration] = None) -> None:
        # Registry counters make the add atomic; parallel scans update
        # from many worker threads, and the counters must stay exact
        # for the tests that account for every decoded element.
        buffers = (gen or self._generation).buffers
        for i, replica in enumerate(buffers):
            if replica is buf:
                if i < len(self._replica_read_counters):
                    self._replica_read_counters[i].add(n_elements)
                return

    def _read_view(self, replica):
        """Resolve ``replica`` to ``(generation, buffer)`` — read together.

        ``None`` / an index resolve against the *active* generation.  A
        buffer object resolves against the active generation first and
        then against retired-but-pinned generations, so a reader that
        captured a buffer before a migration swap keeps decoding it at
        that generation's bit width (never the new width against old
        words — the torn-read failure mode).
        """
        gen = self._generation
        if replica is None:
            return gen, gen.buffers[0]
        if isinstance(replica, (int, np.integer)):
            idx = int(replica)
            if not 0 <= idx < gen.n_replicas:
                raise ReplicaError(
                    f"replica {idx} out of range for {gen.n_replicas} replicas"
                )
            return gen, gen.buffers[idx]
        for buf in gen.buffers:
            if buf is replica:
                return gen, buf
        with self._gen_lock:
            for old in self._retired_generations:
                for buf in old.buffers:
                    if buf is replica:
                        return old, buf
        raise ReplicaError("replica buffer does not belong to this smart array")

    def _resolve_replica(self, replica) -> np.ndarray:
        return self._read_view(replica)[1]

    # -- element API (paper Functions 1-3) ---------------------------------

    def get(self, index: int, replica=None) -> int:
        """Element at ``index`` from ``replica`` (paper Function 1)."""
        bitpack.check_index(index, self._length)
        gen, buf = self._read_view(replica)
        self.stats.add("scalar_gets")
        return _gen_scalar_get(gen, buf, index)

    def init(self, index: int, value: int) -> None:
        """Write ``value`` at ``index`` into every replica (Function 2).

        Like the paper's version, unsynchronized: "in cases of
        concurrent read and write accesses the user of the smart arrays
        needs to synchronize the accesses" (section 4.2).  See
        :meth:`init_locked` for the locked variant the paper sketches.
        """
        bitpack.check_index(index, self._length)
        with self._write_gate:
            gen = self._generation
            _check_gen_writable(gen)
            self.stats.add("scalar_inits")
            _scalar_init(gen.buffers, index, value, gen.bits)
            if self.zone_map is not None:
                self.zone_map = self.zone_map.rewritten(
                    gen, np.array([index // bitpack.CHUNK_ELEMENTS]))
            if self._migration is not None:
                self._migration.mirror_write(index, value)

    def unpack(self, chunk: int, replica=None, out=None) -> np.ndarray:
        """Unpack one 64-element chunk into ``out`` (Function 3)."""
        n_chunks = bitpack.chunks_for(self._length)
        if not 0 <= chunk < max(1, n_chunks):
            raise IndexOutOfRangeError(chunk, n_chunks)
        gen, buf = self._read_view(replica)
        self.stats.add("chunk_unpacks")
        return _gen_unpack(gen, buf, chunk, out=out)

    def init_locked(self, index: int, value: int) -> None:
        """Thread-safe initialization (paper section 4.2's lock variant,
        "e.g., one per chunk").

        Locks the stripe of the element's chunk, so concurrent writers
        to different chunks proceed in parallel while writers whose
        elements could share a storage word always serialize (word
        sharing never crosses a chunk boundary thanks to the 64-element
        alignment property).
        """
        chunk = index // bitpack.CHUNK_ELEMENTS
        with self._init_locks[chunk % self._LOCK_STRIPES]:
            self.init(index, value)

    # -- bulk API (vectorized equivalents) ----------------------------------

    def decode_chunks(self, chunk: int, n_chunks: int, replica=None,
                      out=None) -> np.ndarray:
        """Decode whole chunks ``[chunk, chunk + n_chunks)`` in one pass.

        The superchunk building block of the bulk-span scan engine: one
        call to the blocked all-width kernel replaces ``n_chunks``
        :meth:`unpack` calls, so the Python-loop overhead of a scan
        drops by the superchunk factor while the decoded layout (and
        the ``chunk_unpacks`` accounting) stays chunk-aligned.

        Returns a flat ``uint64`` array of ``n_chunks * 64`` elements,
        written into ``out`` when supplied.  A trailing partial chunk
        decodes its padding slots too; callers slice to the logical
        length.
        """
        return self.read_chunks(chunk, n_chunks, replica, out, decode=True)

    def read_chunks(self, chunk: int, n_chunks: int, replica=None,
                    out=None, decode: bool = False):
        """Account a read of whole chunks ``[chunk, chunk + n_chunks)``
        of ``replica``: ``chunk_unpacks``, ``superchunk_decodes``, the
        replica's read elements and a ``scan.superchunk_decode`` span.

        The one place a chunk read is counted.  With ``decode`` it also
        decodes them (that is :meth:`decode_chunks`); without, it only
        checks and counts the run, for a native scan that decodes the
        same packed words itself (:mod:`repro.core.native`).
        """
        total_chunks = bitpack.chunks_for(self._length)
        if n_chunks < 0:
            raise ValueError(f"n_chunks must be >= 0, got {n_chunks}")
        if chunk < 0:
            raise IndexOutOfRangeError(chunk, total_chunks)
        if chunk + n_chunks > total_chunks:
            raise IndexOutOfRangeError(chunk + n_chunks, total_chunks)
        gen, buf = self._read_view(replica)
        # Only nest a decode span under an already-open operator span on
        # this thread: worker threads with no open span contribute their
        # counter deltas to the operator span via the registry without
        # spamming the trace with root-level decode spans.
        if TRACER.enabled and TRACER.current_span() is not None:
            with TRACER.span(
                "scan.superchunk_decode", array=self.stats.array_label,
                chunk=chunk, n_chunks=n_chunks, bits=gen.bits,
            ):
                return self._read_counted(gen, buf, chunk, n_chunks, out,
                                          decode)
        return self._read_counted(gen, buf, chunk, n_chunks, out, decode)

    def _read_counted(self, gen, buf, chunk, n_chunks, out, decode):
        self.stats.note_superchunk_decode(n_chunks)
        self._note_replica_read(buf, n_chunks * bitpack.CHUNK_ELEMENTS, gen)
        if decode:
            return _gen_decode_span(gen, buf, chunk, n_chunks, out=out)
        return None

    def fill(self, values) -> None:
        """Initialize the whole array from ``values`` (vectorized Function 2)."""
        values = np.ascontiguousarray(values, dtype=np.uint64)
        if values.size != self._length:
            raise ValueError(
                f"expected {self._length} values, got {values.size}"
            )
        with self._write_gate:
            gen = self._generation
            _check_gen_writable(gen)
            packed = bitpack.pack_array(values, gen.bits)
            for buf in gen.buffers:
                np.copyto(buf, packed)
            if self.zone_map is not None:
                self.zone_map = self.zone_map.refilled(values)
            if self._migration is not None:
                self._migration.mirror_fill(values)
        self.stats.add("bulk_elements_written", values.size)

    def to_numpy(self, replica=None) -> np.ndarray:
        """Decode the full logical contents as a ``uint64`` array.

        Uses the all-width blocked kernel (see
        :mod:`repro.core.bitpack_fast`) — at most 8 fixed shift/mask
        passes over the byte-period layout, never per-element gather
        arithmetic.
        """
        from .bitpack_fast import unpack_array_fast

        gen, buf = self._read_view(replica)
        self.stats.add("bulk_elements_read", self._length)
        self._note_replica_read(buf, self._length, gen)
        if gen.codec != "bitpack":
            from .codecs import decode_words
            return decode_words(buf, gen.meta)
        return unpack_array_fast(buf, self._length, gen.bits)

    def gather_many(self, indices, replica=None) -> np.ndarray:
        """Vectorized random-access read (bulk Function 1)."""
        gen, buf = self._read_view(replica)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        if indices.size and (
            int(indices.min()) < 0 or int(indices.max()) >= self._length
        ):
            bad = indices[(indices < 0) | (indices >= self._length)][0]
            raise IndexOutOfRangeError(int(bad), self._length)
        self.stats.add("bulk_elements_read", indices.size)
        if gen.codec != "bitpack":
            from .codecs import decode_words
            return decode_words(buf, gen.meta)[indices]
        return bitpack.gather(buf, indices, gen.bits)

    def scatter_many(self, indices, values) -> None:
        """Vectorized write into every replica (bulk Function 2)."""
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        if indices.size and (
            int(indices.min()) < 0 or int(indices.max()) >= self._length
        ):
            bad = indices[(indices < 0) | (indices >= self._length)][0]
            raise IndexOutOfRangeError(int(bad), self._length)
        with self._write_gate:
            gen = self._generation
            _check_gen_writable(gen)
            for buf in gen.buffers:
                bitpack.scatter(buf, indices, values, gen.bits)
            if self.zone_map is not None and indices.size:
                self.zone_map = self.zone_map.rewritten(
                    gen, np.unique(indices // bitpack.CHUNK_ELEMENTS))
            if self._migration is not None:
                self._migration.mirror_scatter(indices, values)
        self.stats.add("bulk_elements_written", indices.size)

    # -- pythonic conveniences ----------------------------------------------

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index: int) -> int:
        if isinstance(index, slice):
            idx = np.arange(*index.indices(self._length), dtype=np.int64)
            return self.gather_many(idx)
        if index < 0:
            index += self._length
        return self.get(bitpack.check_index(index, self._length))

    def __setitem__(self, index, value) -> None:
        if isinstance(index, slice):
            # Mirror __getitem__: slices route through the vectorized
            # bulk path.  Scalars broadcast across the slice.
            idx = np.arange(*index.indices(self._length), dtype=np.int64)
            values = np.asarray(value, dtype=np.uint64)
            if values.ndim == 0:
                values = np.broadcast_to(values, idx.shape)
            self.scatter_many(idx, values)
            return
        if index < 0:
            index += self._length
        self.init(bitpack.check_index(index, self._length), value)

    def __iter__(self):
        from .iterators import SmartArrayIterator

        it = SmartArrayIterator.allocate(self, 0)
        for _ in range(self._length):
            yield it.get()
            it.next()

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} length={self._length} bits={self._bits} "
            f"placement={self.placement.describe()} replicas={self.n_replicas}>"
        )

    # Factory is attached by repro.core.allocate to avoid an import cycle;
    # annotated here for discoverability.
    allocate = None  # type: ignore[assignment]


class BitCompressedArray(SmartArray):
    """General bit-compressed array, any ``bits`` in 1..64 (paper Fig. 9).

    The paper instantiates 64 template classes so BITS is a compile-time
    constant; the Python analogue binds ``bits`` once at construction and
    the kernels in :mod:`repro.core.bitpack` specialize on it.  Every
    element and bulk operation is the base class's, dispatched on the
    pinned generation.
    """


class Uncompressed64Array(BitCompressedArray):
    """BITS = 64 specialization: elements are the storage words.

    ``get`` reduces to a direct word load — "they can be implemented
    with simplified getter, initialization, and unpack functions that
    do not require shifting and masking" (section 4.3); the generic
    init and unpack already store and copy whole words at 64 bits.
    """

    def get(self, index: int, replica=None) -> int:
        bitpack.check_index(index, self._length)
        gen, buf = self._read_view(replica)
        self.stats.add("scalar_gets")
        if gen.codec == "bitpack" and gen.bits == 64:
            return int(buf[index])
        return _gen_scalar_get(gen, buf, index)


class Uncompressed32Array(BitCompressedArray):
    """BITS = 32 specialization: elements map onto native 32-bit slots.

    The packed word buffer is reinterpreted as ``uint32`` (little-endian
    hosts, as on the paper's Intel machines), so ``get`` is a direct
    load without shifts or masks; the generic init and unpack already
    use the same view at 32 bits.
    """

    def get(self, index: int, replica=None) -> int:
        bitpack.check_index(index, self._length)
        gen, buf = self._read_view(replica)
        self.stats.add("scalar_gets")
        if gen.codec == "bitpack" and gen.bits == 32:
            return int(buf.view(np.uint32)[index])
        return _gen_scalar_get(gen, buf, index)


def concrete_class_for_bits(bits: int):
    """The subclass ``allocate()`` instantiates for ``bits`` (Fig. 9)."""
    bits = bitpack.check_bits(bits)
    if bits == 64:
        return Uncompressed64Array
    if bits == 32:
        return Uncompressed32Array
    return BitCompressedArray


def concrete_class_for_generation(generation: StorageGeneration):
    """The subclass matching a generation's (codec, bits) pair.

    Migration commits route through this so an array's concrete class
    tracks its active layout: encoding installs
    :class:`repro.core.codecs.CodecArray`, decoding back to bitpack
    restores the width-specialized Fig. 9 class.
    """
    if generation.codec != "bitpack":
        from .codecs import CodecArray

        return CodecArray
    return concrete_class_for_bits(generation.bits)
