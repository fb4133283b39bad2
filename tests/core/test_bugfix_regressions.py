"""Regression tests for the bugs fixed alongside the smartcheck harness.

Each harness-discovered bug is pinned twice: by a direct unit test of
the fixed path, and (where noted) by replaying the exact shrunk repro
the harness produced, with its seed recorded so ``python -m repro
check --seed S`` rediscovers the same sequence.
"""

import threading

import numpy as np
import pytest

from repro.check.generator import ArraySpec, Case, Op, gen_values
from repro.check.runner import run_case
from repro.core import bitpack
from repro.core.stats import AccessStats
from repro.core.allocate import allocate
from repro.core.errors import IndexOutOfRangeError
from repro.core.iterators import SmartArrayIterator
from repro.core.scan_ops import (
    U64_MAX,
    clamp_u64_range,
    count_equal,
    count_in_range,
    select_in_range,
)
from repro.core.zonemap import ZoneMap
from repro.numa.allocator import NumaAllocator
from repro.numa.topology import machine_2x8_haswell
from repro.core.table import SmartTable
from repro.query import Query, in_range
from repro.runtime.workers import WorkerPool


def _allocator():
    return NumaAllocator(machine_2x8_haswell())


def _array(values, bits=64):
    values = np.asarray(values, dtype=np.uint64)
    return allocate(len(values), bits=bits, allocator=_allocator(),
                    values=values)


BOUNDARY_VALUES = [0, 1, (1 << 63) - 1, 1 << 63, U64_MAX - 1, U64_MAX]


class TestUint64BoundaryScans:
    """Bug: ``np.uint64(hi)`` raised OverflowError when the requested
    range reached past the uint64 domain (``hi >= 2**64``), so scans
    over full-width data could not express "everything >= lo".

    Harness repro: seed 0, case 5, shrunk to a single op
    ``select_in_range(2**63, 2**64, 19, 71)`` on a 64-bit array.
    """

    def test_clamp_u64_range(self):
        assert clamp_u64_range(0, 0) is None
        assert clamp_u64_range(9, 4) is None
        assert clamp_u64_range(-7, -2) is None
        assert clamp_u64_range(U64_MAX + 1, U64_MAX + 5) is None
        lo, hi = clamp_u64_range(-3, 10)
        assert (int(lo), int(hi)) == (0, 10)
        lo, hi = clamp_u64_range(5, 1 << 64)
        assert int(lo) == 5 and hi is None
        lo, hi = clamp_u64_range(0, U64_MAX)
        assert int(hi) == U64_MAX

    def test_count_in_range_hi_past_domain(self):
        sa = _array(BOUNDARY_VALUES)
        assert count_in_range(sa, 0, 1 << 64) == len(BOUNDARY_VALUES)
        assert count_in_range(sa, 1 << 63, (1 << 64) + 123) == 3
        assert count_in_range(sa, U64_MAX, 1 << 65) == 1
        # Entirely above the domain: empty, not a crash.
        assert count_in_range(sa, 1 << 64, 1 << 65) == 0
        # Negative lo clamps to zero.
        assert count_in_range(sa, -10, 2) == 2

    def test_select_in_range_hi_past_domain(self):
        sa = _array(BOUNDARY_VALUES)
        got = select_in_range(sa, 1 << 63, 1 << 64)
        assert got.tolist() == [3, 4, 5]
        assert select_in_range(sa, 1 << 64, 1 << 66).size == 0

    def test_count_equal_out_of_domain_value(self):
        sa = _array(BOUNDARY_VALUES)
        assert count_equal(sa, 1 << 64) == 0
        assert count_equal(sa, -1) == 0
        assert count_equal(sa, U64_MAX) == 1

    def test_zonemap_hi_past_domain(self):
        values = np.arange(300, dtype=np.uint64)
        values[128:192] = U64_MAX - np.arange(64, dtype=np.uint64)
        sa = _array(values)
        zm = ZoneMap.build(sa)
        assert zm.candidate_chunks(1 << 63, 1 << 64).tolist() == [2]
        assert zm.candidate_chunks(1 << 64, 1 << 65).size == 0
        # Chunk 2 is fully covered by the clamped range: counted without
        # decoding, and still correct.
        assert zm.count_in_range(1 << 63, (1 << 64) + 7) == 64
        got = zm.select_in_range(U64_MAX - 2, 1 << 64)
        assert got.tolist() == [128, 129, 130]

    def test_parallel_scans_hi_past_domain(self):
        sa = _array(BOUNDARY_VALUES * 40)
        pool = WorkerPool(machine_2x8_haswell(), n_workers=4, mode="serial")

        def pooled(lo, hi):
            return Query(SmartTable({"v": sa})).where(in_range("v", lo, hi))

        def count(lo, hi):
            return pooled(lo, hi).count().run(pool=pool, morsel=64).scalar()

        assert count(1 << 63, 1 << 64) == 120
        assert count(1 << 64, 1 << 65) == 0
        got = pooled(U64_MAX, 1 << 65).select().run(pool=pool, morsel=64)
        assert got.rows.tolist() == list(range(5, 240, 6))

    def test_harness_repro_seed0_case5(self):
        # Replays the exact shrunk sequence the harness produced before
        # the fix (OverflowError at op 0).
        case = Case(
            seed=0, index=5,
            spec=ArraySpec(length=89, bits=64, placement="default",
                           superchunk=4096, pool_mode="serial"),
            ops=(Op("fill", (11,)),
                 Op("select_in_range",
                    (1 << 63, 1 << 64, 19, 71, 1))),
        )
        assert run_case(case) is None


class TestSetitemSlice:
    """Bug: ``sa[a:b] = values`` raised TypeError (``'<' not supported
    between instances of 'slice' and 'int'``) because ``__setitem__``
    never routed slices through ``scatter_many``.

    Harness repro: seed 0, case 1, shrunk to
    ``setitem_slice(-59, 128, -1, vseed)`` on a 7-bit array.
    """

    def test_slice_assignment(self):
        sa = _array(np.zeros(200), bits=13)
        sa[10:74] = np.arange(64, dtype=np.uint64)
        assert sa[10:74].tolist() == list(range(64))
        assert sa[9] == 0 and sa[74] == 0

    def test_slice_assignment_scalar_broadcast(self):
        sa = _array(np.zeros(100), bits=8)
        sa[::3] = 7
        got = sa.to_numpy()
        assert (got[::3] == 7).all()
        assert (got[1::3] == 0).all() and (got[2::3] == 0).all()

    def test_slice_assignment_negative_step(self):
        sa = _array(np.zeros(50), bits=8)
        sa[40:10:-2] = np.arange(15, dtype=np.uint64)
        assert sa[40:10:-2].tolist() == list(range(15))

    def test_slice_assignment_updates_every_replica(self):
        sa = allocate(130, bits=9, replicated=True, allocator=_allocator())
        sa[5:70] = np.arange(65, dtype=np.uint64)
        for replica in range(sa.n_replicas):
            decoded = bitpack.unpack_array(
                sa.get_replica(None)
                if replica is None else sa.allocation.buffers[replica],
                130, 9)
            assert decoded[5:70].tolist() == list(range(65))

    def test_harness_repro_seed0_case1(self):
        case = Case(
            seed=0, index=1,
            spec=ArraySpec(length=675, bits=7, placement="pinned",
                           superchunk=256, pool_mode="threads"),
            ops=(Op("fill", (23,)),
                 Op("setitem_slice", (-59, 128, -1, 675766773))),
        )
        assert run_case(case) is None

    def test_decode_chunks_reports_actual_negative_chunk(self):
        sa = _array(np.zeros(300))
        with pytest.raises(IndexOutOfRangeError) as exc:
            sa.decode_chunks(-2, 1)
        assert "-2" in str(exc.value)


class TestIteratorTakeRepositioning:
    """Bug: ``CompressedIterator.take`` finished with ``reset(stop)``,
    paying one redundant scalar ``unpack()`` for a chunk the bulk decode
    had already produced.

    Harness repro: seed 0, case 0, shrunk to ``take_then_get(485, 8)``
    (expected 2 chunk unpacks, observed 3).
    """

    def test_take_unaligned_no_redundant_unpack(self):
        sa = _array(np.arange(5000), bits=13)
        it = SmartArrayIterator.allocate(sa)
        sa.stats.reset()
        got = it.take(100)
        assert got.tolist() == list(range(100))
        # Chunks 0 and 1 decoded in bulk; chunk 1's tail refills the
        # buffer with no third unpack.
        assert sa.stats.chunk_unpacks == 2
        assert it.get() == 100  # buffer is positioned correctly

    def test_take_aligned_loads_next_chunk_once(self):
        sa = _array(np.arange(5000), bits=13)
        it = SmartArrayIterator.allocate(sa)
        sa.stats.reset()
        it.take(128)
        # 2 bulk decodes + 1 genuine load of chunk 2 for the cursor.
        assert sa.stats.chunk_unpacks == 3
        assert it.get() == 128

    def test_take_to_exact_end_loads_nothing_extra(self):
        sa = _array(np.arange(128), bits=13)
        it = SmartArrayIterator.allocate(sa)
        sa.stats.reset()
        got = it.take(128)
        assert got.size == 128
        assert sa.stats.chunk_unpacks == 2
        assert it.index == 128

    def test_take_then_scalar_walk_stays_consistent(self):
        sa = _array(np.arange(1000), bits=11)
        it = SmartArrayIterator.allocate(sa, 485)
        assert it.take(8).tolist() == list(range(485, 493))
        for expect in range(493, 520):
            assert it.get() == expect
            it.next()

    def test_harness_repro_seed0_case0(self):
        case = Case(
            seed=0, index=0,
            spec=ArraySpec(length=997, bits=1, placement="default",
                           superchunk=64, pool_mode="serial"),
            ops=(Op("fill", (5,)),
                 Op("take_then_get", (485, 8))),
        )
        assert run_case(case) is None


class TestReplicaReadReset:
    """Bug: ``reset_replica_reads`` mutated the counters without taking
    ``_replica_reads_lock``, racing concurrent readers' increments."""

    def test_reset_under_concurrent_reads(self):
        sa = allocate(4096, bits=13, replicated=True,
                      allocator=_allocator(),
                      values=np.arange(4096, dtype=np.uint64))
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                sa.to_numpy()

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        try:
            for _ in range(50):
                sa.reset_replica_reads()
        finally:
            stop.set()
            for t in threads:
                t.join()
        sa.reset_replica_reads()
        assert list(sa.replica_read_elements) == [0] * sa.n_replicas

    def test_scan_engine_validated_at_construction(self):
        from repro.adapt.inputs import ArrayCharacteristics

        with pytest.raises(ValueError, match="scan_engine"):
            ArrayCharacteristics(length=10, element_bits=13,
                                 scan_engine="vectorized")


class TestCounterLostUpdates:
    """Bug: every ``self.stats.field += n`` in the hot paths was an
    unprotected read-modify-write; concurrent workers (parallel scans,
    replicated decodes) lost updates.  The obs sweep replaced every site
    with lock-protected registry counters (``AccessStats.add``)."""

    N_THREADS = 4
    PER_THREAD = 30_000

    def _hammer(self, bump):
        barrier = threading.Barrier(self.N_THREADS)

        def worker():
            barrier.wait()
            for _ in range(self.PER_THREAD):
                bump()

        threads = [threading.Thread(target=worker)
                   for _ in range(self.N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def test_old_increment_idiom_demonstrably_loses_counts(self):
        # ``stats.chunk_unpacks += 1`` — the idiom every internal site
        # used before the sweep — reads via the property getter and
        # writes via the setter: two calls, each a GIL checkpoint, so
        # increments from other threads in between are overwritten.
        # (The test-compat property keeps plain assignment working; the
        # fix is that no *internal* site uses ``+=`` anymore.)
        import sys

        expected = self.N_THREADS * self.PER_THREAD
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(8):
                stats = AccessStats()

                def bump():
                    stats.chunk_unpacks += 1

                self._hammer(bump)
                if stats.chunk_unpacks < expected:
                    return  # the race reproduced: updates were lost
        finally:
            sys.setswitchinterval(old_interval)
        pytest.skip("GIL never interleaved the unprotected +=; the racy "
                    "baseline could not be demonstrated on this build")

    def test_access_stats_add_is_exact_under_threads(self):
        import sys

        sa = _array(np.zeros(64), bits=8)
        sa.stats.reset()
        expected = self.N_THREADS * self.PER_THREAD
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            self._hammer(lambda: sa.stats.add("chunk_unpacks"))
        finally:
            sys.setswitchinterval(old_interval)
        assert sa.stats.chunk_unpacks == expected

    def test_add_many_single_acquisition_is_exact(self):
        sa = _array(np.zeros(64), bits=8)
        sa.stats.reset()
        self._hammer(lambda: sa.stats.add_many(chunk_unpacks=1,
                                               superchunk_decodes=2))
        expected = self.N_THREADS * self.PER_THREAD
        assert sa.stats.chunk_unpacks == expected
        assert sa.stats.superchunk_decodes == 2 * expected

    def test_total_operations_includes_superchunk_decodes(self):
        # Bug: total_operations omitted superchunk_decodes while
        # snapshot() included it, so "sum of snapshot fields" and
        # total_operations disagreed after any blocked decode.
        sa = _array(np.arange(600), bits=10)
        sa.stats.reset()
        sa.decode_chunks(0, 5)
        snap = sa.stats.snapshot()
        assert snap["superchunk_decodes"] == 1
        assert sa.stats.total_operations == sum(snap.values())


class TestSerialThreadedCounterParity:
    """Audit: every loop runs exactly ceil(n/batch) bodies, so
    ``runtime.batches_claimed`` totals match between serial and threaded
    pools, and a batch whose body raises is neither re-claimed nor
    counted twice."""

    def _claims(self):
        from repro.obs import registry

        return registry().value("runtime.batches_claimed")

    def test_dynamic_claims_match_serial_vs_threaded(self):
        from repro.obs import registry
        from repro.runtime.loops import parallel_for

        n, batch = 10_000, 256
        expected = -(-n // batch)
        for n_workers, mode in [(1, "serial"), (8, "threads")]:
            pool = WorkerPool(machine_2x8_haswell(), n_workers=n_workers,
                              mode=mode)
            before = self._claims()
            parallel_for(n, lambda s, e, ctx: None, pool, batch=batch)
            assert self._claims() - before == expected

    def test_failed_batch_not_reclaimed_or_double_counted(self):
        from repro.runtime.loops import parallel_for

        n, batch = 4096, 256
        n_batches = n // batch
        executed = []
        lock = threading.Lock()

        def body(start, end, ctx):
            if start == 5 * batch:
                raise RuntimeError("injected batch failure")
            with lock:
                executed.append(start)

        pool = WorkerPool(machine_2x8_haswell(), n_workers=4,
                          mode="threads")
        before = self._claims()
        with pytest.raises(RuntimeError, match="injected"):
            parallel_for(n, body, pool, batch=batch)
        claimed = self._claims() - before
        # Every batch was claimed at most once: no start index repeats,
        # and the failing batch is neither retried nor counted.
        assert len(executed) == len(set(executed))
        assert 5 * batch not in executed
        assert claimed == len(executed) <= n_batches - 1

    def test_harness_repro_obs_profile_seed0(self):
        # Replay an obs-profile case end to end: traced ops with the
        # registry cross-checked against the oracle accounting.
        from repro.check.generator import generate_cases

        cases = list(generate_cases(0, 120, profile="obs"))
        assert cases, "obs profile generated no cases"
        for case in cases[:3]:
            assert run_case(case, n_workers=4) is None


class TestPerfCountersValidation:
    """Bug: ``scaled_to`` accepted NaN/0 factors (``NaN <= 0`` is
    False), propagating NaN into ``AdaptiveController._drifted`` where
    every comparison silently went False and froze the controller."""

    def _pc(self, **kwargs):
        from repro.numa.counters import PerfCounters

        defaults = dict(time_s=1.0, instructions=1e9,
                        bytes_from_memory=8e9, memory_bandwidth_gbs=8.0,
                        label="base")
        defaults.update(kwargs)
        return PerfCounters(**defaults)

    def test_scaled_to_rejects_nan_and_nonpositive(self):
        pc = self._pc()
        for bad in (float("nan"), 0.0, -1.0, float("inf")):
            with pytest.raises(ValueError):
                pc.scaled_to(bad)

    def test_scaled_to_factor_one_round_trips(self):
        pc = self._pc().with_label("scan")
        scaled = pc.scaled_to(1.0)
        assert scaled == pc
        assert scaled.label == "scan"
        assert scaled.exec_rate == pytest.approx(pc.exec_rate)

    def test_scaled_to_preserves_label_and_rates(self):
        pc = self._pc().with_label("scan")
        scaled = pc.scaled_to(4.0)
        assert scaled.label == "scan"
        # Totals scale linearly; rates are invariant.
        assert scaled.time_s == pytest.approx(4.0)
        assert scaled.instructions == pytest.approx(4e9)
        assert scaled.exec_rate == pytest.approx(pc.exec_rate)
        assert scaled.memory_bandwidth_gbs == pc.memory_bandwidth_gbs

    def test_constructor_rejects_nan_fields(self):
        for field_name in ("time_s", "instructions", "bytes_from_memory",
                           "memory_bandwidth_gbs", "interconnect_gbs"):
            with pytest.raises(ValueError, match="finite"):
                self._pc(**{field_name: float("nan")})

    def test_with_label_round_trip(self):
        pc = self._pc()
        assert pc.with_label("x").with_label("base") == pc

    def test_controller_never_sees_nan(self):
        # End to end: feeding the controller counters built from any
        # finite values can never produce a NaN drift comparison,
        # because PerfCounters rejects non-finite fields at birth.
        from repro.numa.counters import PerfCounters

        with pytest.raises(ValueError):
            PerfCounters(time_s=float("nan"), instructions=1.0,
                         bytes_from_memory=1.0,
                         memory_bandwidth_gbs=1.0)


class TestFinalizerDeadlocks:
    """weakref finalizers run on whatever thread triggers a GC — which
    can be a thread already *inside* a locked region of the registry
    (any registry method allocates under ``_lock``) or of an array's
    generation machinery.  ``threading.Lock`` is not reentrant, so a
    finalizer that blocks on such a lock hangs the process with a
    single thread stuck in a futex wait.  Finalizer entry points must
    therefore never block: ``MetricsRegistry.drop`` defers when the
    lock is contended, and iterator unpins go through a deferral
    queue."""

    def test_registry_drop_never_blocks_on_held_lock(self):
        from repro.obs.registry import MetricsRegistry

        reg = MetricsRegistry()
        reg.counter("a", array="a0")
        reg.counter("b")
        # Simulate GC firing inside a locked registry region: the lock
        # is held (by anyone) when the finalizer calls drop().
        assert reg._lock.acquire(timeout=1)
        try:
            done = []

            def finalizer_path():
                reg.drop(["a{array=a0}"])  # must not block
                done.append(True)

            t = threading.Thread(target=finalizer_path)
            t.start()
            t.join(timeout=5)
            assert done, "drop() blocked on the held registry lock"
        finally:
            reg._lock.release()
        # The deferred drop lands on the next locked operation.
        reg.counter("c")
        assert "a{array=a0}" not in {m.key for m in reg.metrics()}
        assert {m.key for m in reg.metrics()} == {"b", "c"}

    def test_registry_drop_still_prompt_when_uncontended(self):
        from repro.obs.registry import MetricsRegistry

        reg = MetricsRegistry()
        reg.counter("a", array="a0")
        reg.drop(["a{array=a0}"])
        assert len(reg) == 0

    def test_iterator_finalizer_defers_unpin(self):
        import gc

        from repro.core.smart_array import flush_deferred_unpins

        arr = allocate(640, bits=13,
                       values=gen_values(1, 640, 13),
                       allocator=_allocator())
        it = SmartArrayIterator.allocate(arr, 0)
        gen = it._generation
        assert gen.pin_count == 1
        del it
        gc.collect()
        # The finalizer queued the unpin instead of taking generation
        # locks mid-GC; the pin drains at the next flush point.
        flush_deferred_unpins()
        assert gen.pin_count == 0

    def test_queued_unpin_flushes_on_next_pin(self):
        import gc

        arr = allocate(640, bits=13,
                       values=gen_values(2, 640, 13),
                       allocator=_allocator())
        it = SmartArrayIterator.allocate(arr, 0)
        gen = it._generation
        del it
        gc.collect()
        reader = arr.pin_generation()  # flush point
        try:
            assert gen.pin_count == (1 if reader is gen else 0)
        finally:
            reader.unpin()

    def test_queue_unpin_safe_while_generation_lock_held(self):
        from repro.core.smart_array import (
            flush_deferred_unpins,
            queue_unpin,
        )

        arr = allocate(64, bits=7,
                       values=gen_values(3, 64, 7),
                       allocator=_allocator())
        gen = arr.pin_generation()
        # GC can fire while this thread holds the generation's lock;
        # queueing must not touch it.
        assert gen._lock.acquire(timeout=1)
        try:
            queue_unpin(gen)  # must not block
        finally:
            gen._lock.release()
        flush_deferred_unpins()
        assert gen.pin_count == 0


class TestGenValuesPurity:
    """The harness repros above depend on ``gen_values`` being a pure
    function of (vseed, n, bits); pin that here so recorded repros keep
    meaning the same data."""

    def test_deterministic(self):
        a = gen_values(675766773, 128, 7)
        b = gen_values(675766773, 128, 7)
        assert np.array_equal(a, b)
        assert a.dtype == np.uint64
        assert int(a.max()) < (1 << 7)


class TestCodecU64BoundaryRegressions:
    """uint64-boundary bugs in the codec range paths.

    Dictionary code-range translation fed raw Python ints straight into
    ``np.searchsorted`` against a uint64 dictionary, so ``hi = 2**64``
    (the canonical "unbounded above" sentinel every other range
    operator accepts) promoted through float64 — or raised, depending
    on the NumPy era — and values near ``2**64`` compared wrong.  The
    RLE paths had the same hole.  All of them now route through
    ``clamp_u64_range``; these pin the *exact results* at the
    boundaries of the dict and RLE layouts, not merely that nothing
    raises.
    """

    def _dict(self, values):
        from repro.core import encode_array

        return encode_array(np.asarray(values, dtype=np.uint64), "dict",
                            allocator=_allocator())

    def _rle(self, values):
        from repro.core import encode_array

        return encode_array(np.asarray(values, dtype=np.uint64), "rle",
                            allocator=_allocator())

    def test_codes_for_range_full_u64_domain(self):
        enc = self._dict([10, 20, 30, 20, 10])
        assert count_in_range(enc, 0, 2 ** 64) == 5
        np.testing.assert_array_equal(
            select_in_range(enc, 0, 2 ** 64), np.arange(5)
        )

    def test_dict_boundaries_near_u64_max(self):
        enc = self._dict([0, U64_MAX, U64_MAX - 1, U64_MAX])
        assert count_in_range(enc, U64_MAX, 2 ** 64) == 2
        assert count_in_range(enc, U64_MAX - 1, U64_MAX) == 1
        np.testing.assert_array_equal(
            select_in_range(enc, U64_MAX, 2 ** 65), [1, 3]
        )

    def test_dict_degenerate_ranges(self):
        enc = self._dict([5, 6, 7])
        assert count_in_range(enc, 6, 6) == 0          # empty half-open
        assert count_in_range(enc, 7, 6) == 0          # lo > hi
        assert count_in_range(enc, -10, 6) == 1        # negative lo clamps
        assert select_in_range(enc, 9, 2).size == 0

    def test_rle_full_domain_and_degenerate_ranges(self):
        enc = self._rle([4, 4, 4, 9, 9, 4])
        assert count_in_range(enc, 0, 2 ** 64) == 6
        assert count_in_range(enc, 9, 4) == 0
        assert count_in_range(enc, -3, 5) == 4
        np.testing.assert_array_equal(
            select_in_range(enc, 0, 2 ** 70), np.arange(6)
        )

    def test_rle_near_u64_max(self):
        enc = self._rle([U64_MAX, U64_MAX, 1, U64_MAX - 1])
        assert count_in_range(enc, U64_MAX, 2 ** 64) == 2
        assert count_equal(enc, U64_MAX) == 2
        assert count_equal(enc, 2 ** 64) == 0          # out of domain
        assert count_equal(enc, -1) == 0

    def test_rle_sum_is_exact_not_wrapping(self):
        # Two max-value runs: a uint64 accumulator would wrap; the
        # engine's sum contract is exact arbitrary-precision.
        from repro.core import sum_range

        enc = self._rle([U64_MAX] * 5 + [7] * 3)
        assert sum_range(enc) == 5 * U64_MAX + 21


class TestStaleZoneMapRegression:
    """An in-place write after ``build_zone_map`` left the cached map in
    use: ``count(*) WHERE ts >= 4000`` kept answering 96 after
    ``ts[10] = 4090`` (the right answer is 97), through both the query
    planner and ``filter_range``.  Every write path now replaces the
    column's map with one exact for the new contents, so the answer is
    right and pruning is kept, with nothing rebuilt.
    """

    def _table(self):
        from repro.core import SmartTable

        n = 4096
        return SmartTable.from_arrays(
            {"ts": np.arange(n), "v": np.ones(n, dtype=np.uint64)},
            allocator=_allocator(),
        )

    @staticmethod
    def _count(t):
        from repro.query import Query, col

        result = Query(t).where(col("ts") >= 4000).count().run()
        return (result.scalar(), t.filter_range("ts", 4000, 2 ** 64).size,
                result.plan.chunks_candidate)

    def test_probe_returns_97(self):
        t = self._table()
        assert self._count(t) == (96, 96, 2)
        t["ts"][10] = 4090
        zm = t["ts"].zone_map
        # Candidates: the two chunks that held matches, plus chunk 0,
        # which now holds 4090; nothing rebuilds the map.
        assert self._count(t) == (97, 97, 3)
        assert t["ts"].zone_map is zm
        assert zm.candidate_chunks(4000, 2 ** 64).tolist() == [0, 62, 63]

    @pytest.mark.parametrize("write", [
        "init", "setitem", "setitem_slice", "scatter_many", "fill"])
    def test_write_keeps_map(self, write):
        t = self._table()
        ts = t["ts"]
        if write == "init":
            ts.init(10, 4090)
        elif write == "setitem":
            ts[10] = 4090
        elif write == "setitem_slice":
            ts[10:11] = 4090
        elif write == "scatter_many":
            ts.scatter_many(np.array([10]), np.array([4090], np.uint64))
        else:
            values = np.arange(4096, dtype=np.uint64)
            values[10] = 4090
            ts.fill(values)
        zm = ts.zone_map
        assert (int(zm.mins[0]), int(zm.maxs[0])) == (0, 4090)
        assert int(zm.sums[0]) == sum(range(64)) - 10 + 4090
        assert not zm.monotone
        assert self._count(t) == (97, 97, 3)


class TestCodecClassSwapRaceRegression:
    """Harness-found (codec profile, seed 1): ``_install_generation``
    swaps the array's concrete class and its generation non-atomically
    from an ungated reader's view, so a reader could observe the new
    bit-packed class with the old encoded generation and decode RLE
    words as packed data.  Every read path now resolves layout through
    the generation object itself; replaying the discovering seed keeps
    the fix honest under the original interleaving.
    """

    def test_seed1_codec_profile_replays_clean(self):
        from repro.check import run_check

        report = run_check(seed=1, ops=400, profile="codec")
        assert report.ok, report.format()
