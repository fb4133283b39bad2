"""Tests for the incremental online migrator (repro.live.migrator)."""

import threading

import numpy as np
import pytest

from repro.adapt.selector import Configuration
from repro.core.allocate import allocate
from repro.core.map_api import sum_range
from repro.core.placement import Placement
from repro.core.table import SmartTable
from repro.live import LiveMigrator, MigrationBudget, MigrationError
from repro.numa.allocator import NumaAllocator
from repro.numa.topology import machine_2x8_haswell
from repro.obs.registry import MetricsRegistry


@pytest.fixture
def machine():
    return machine_2x8_haswell()


@pytest.fixture
def allocator(machine):
    return NumaAllocator(machine)


@pytest.fixture
def migrator(allocator):
    # A private registry keeps counter assertions independent of other
    # tests sharing the process-global registry.
    return LiveMigrator(allocator, registry=MetricsRegistry())


def free_per_socket(allocator):
    ledger = allocator.ledger
    return [ledger.free_bytes(s)
            for s in range(ledger.machine.n_sockets)]


def make(allocator, values, bits=64, **flags):
    arr = allocate(len(values), bits=bits, allocator=allocator, **flags)
    arr.fill(values)
    return arr


def data(n, bits, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << bits, size=n, dtype=np.uint64)


class TestRepack:
    @pytest.mark.parametrize("src_bits", [1, 7, 33, 64])
    @pytest.mark.parametrize("dst_bits", [1, 7, 33, 64])
    def test_all_width_pairs_preserve_data(self, allocator, migrator,
                                           src_bits, dst_bits):
        narrow = min(src_bits, dst_bits)
        values = data(300, narrow, seed=src_bits * 100 + dst_bits)
        arr = make(allocator, values, bits=src_bits)
        migration = migrator.migrate(
            arr, Configuration(Placement.interleaved(), dst_bits))
        assert migration.state == "completed"
        assert arr.bits == dst_bits
        assert arr.placement.is_interleaved
        assert np.array_equal(arr.to_numpy(), values)

    def test_to_replicated_fills_every_replica(self, allocator, migrator):
        values = data(500, 33)
        arr = make(allocator, values, bits=64)
        migrator.migrate(arr, Configuration(Placement.replicated(), 33))
        assert arr.n_replicas == 2
        for replica in range(arr.n_replicas):
            assert np.array_equal(arr.to_numpy(replica=replica), values)

    def test_epoch_increments_per_migration(self, allocator, migrator):
        arr = make(allocator, data(100, 10), bits=16)
        assert arr.generation_epoch == 0
        migrator.migrate(arr, Configuration(Placement.interleaved(), 16))
        migrator.migrate(arr, Configuration(Placement.replicated(), 12))
        assert arr.generation_epoch == 2

    def test_budget_bounds_chunks_per_step(self, allocator, migrator):
        values = data(64 * 10, 20)
        arr = make(allocator, values, bits=64)
        migration = migrator.start(
            arr, Configuration(Placement.single_socket(1), 20),
            budget=MigrationBudget(max_chunks_per_step=3))
        steps = 0
        while migration.step():
            steps += 1
            assert migration.chunks_repacked <= 3 * migration.steps
            # Mid-migration, the live generation still decodes intact.
            assert np.array_equal(arr.to_numpy(), values)
        assert migration.state == "completed"
        assert migration.total_chunks == 10
        assert migration.steps == 4  # ceil(10 / 3)

    def test_bytes_budget_caps_chunk_batches(self):
        # 512 decoded bytes per chunk: a 1 KiB in-flight cap allows 2.
        budget = MigrationBudget(max_chunks_per_step=64,
                                 max_bytes_in_flight=1024)
        assert budget.chunks_per_step == 2
        with pytest.raises(ValueError):
            MigrationBudget(max_chunks_per_step=0)
        with pytest.raises(ValueError):
            MigrationBudget(max_bytes_in_flight=100)

    def test_narrowing_below_data_aborts_cleanly(self, allocator, migrator):
        values = data(200, 33)
        values[150] = np.uint64(1 << 32)  # needs 33 bits
        arr = make(allocator, values, bits=64)
        free_before = free_per_socket(allocator)
        migration = migrator.migrate(
            arr, Configuration(Placement.interleaved(), 20))
        assert migration.state == "aborted"
        assert "does not fit" in migration.abort_reason
        # Array untouched, target allocation returned to the ledger.
        assert arr.bits == 64
        assert arr.generation_epoch == 0
        assert np.array_equal(arr.to_numpy(), values)
        assert free_per_socket(allocator) == free_before

    @pytest.mark.parametrize("chunks_per_step", [3, 64, 80])
    def test_mid_migration_overflow_names_value_and_width(
            self, allocator, migrator, chunks_per_step):
        # 80-chunk steps pack through the byte-period kernel, smaller
        # ones through the scatter: both must abort on pack_array's own
        # overflow check, after earlier chunks were already repacked.
        n = 200 * 64
        values = data(n, 20)
        values[n - 100] = np.uint64((1 << 40) + 5)
        arr = make(allocator, values, bits=64)
        free_before = free_per_socket(allocator)
        migration = migrator.migrate(
            arr, Configuration(Placement.interleaved(), 20),
            budget=MigrationBudget(max_chunks_per_step=chunks_per_step))
        assert migration.state == "aborted"
        assert migration.chunks_repacked > 0
        assert str((1 << 40) + 5) in migration.abort_reason
        assert "target width 20" in migration.abort_reason
        assert "does not fit in 20 bits" in migration.abort_reason
        # The source generation is untouched and still readable.
        assert arr.bits == 64 and arr.generation_epoch == 0
        assert arr._migration is None
        assert np.array_equal(arr.to_numpy(), values)
        assert arr.get(n - 100) == (1 << 40) + 5
        assert free_per_socket(allocator) == free_before

    def test_zero_length_array(self, allocator, migrator):
        arr = allocate(0, bits=64, allocator=allocator)
        migration = migrator.migrate(
            arr, Configuration(Placement.replicated(), 7))
        assert migration.state == "completed"
        assert arr.bits == 7
        assert arr.to_numpy().size == 0

    def test_single_chunk_array(self, allocator, migrator):
        values = data(40, 5)  # one partial chunk
        arr = make(allocator, values, bits=64)
        migration = migrator.migrate(
            arr, Configuration(Placement.single_socket(0), 5))
        assert migration.state == "completed"
        assert migration.chunks_repacked == 1
        assert np.array_equal(arr.to_numpy(), values)

    def test_only_one_migration_in_flight(self, allocator, migrator):
        arr = make(allocator, data(300, 8), bits=64)
        migration = migrator.start(
            arr, Configuration(Placement.interleaved(), 8),
            budget=MigrationBudget(max_chunks_per_step=1))
        with pytest.raises(MigrationError):
            migrator.start(arr, Configuration(Placement.replicated(), 8))
        migration.run()
        assert migration.state == "completed"


class TestDualWrite:
    def test_writes_behind_and_ahead_of_watermark_survive(
            self, allocator, migrator):
        values = data(64 * 6, 12)
        arr = make(allocator, values, bits=64)
        migration = migrator.start(
            arr, Configuration(Placement.interleaved(), 12),
            budget=MigrationBudget(max_chunks_per_step=2))
        migration.step()  # chunks 0-1 copied
        arr[0] = 111            # behind the watermark: mirrored
        arr[64 * 5] = 222       # ahead: re-copied by a later step
        values[0], values[64 * 5] = 111, 222
        while migration.step():
            pass
        assert migration.state == "completed"
        assert np.array_equal(arr.to_numpy(), values)

    def test_scatter_and_fill_mirrored(self, allocator, migrator):
        values = data(400, 12)
        arr = make(allocator, values, bits=64)
        migration = migrator.start(
            arr, Configuration(Placement.replicated(), 12),
            budget=MigrationBudget(max_chunks_per_step=1))
        migration.step()
        idx = np.array([1, 100, 399], dtype=np.int64)
        upd = np.array([7, 8, 9], dtype=np.uint64)
        arr.scatter_many(idx, upd)
        values[idx] = upd
        migration.step()
        refill = data(400, 12, seed=9)
        arr.fill(refill)
        while migration.step():
            pass
        assert migration.state == "completed"
        assert np.array_equal(arr.to_numpy(), refill)

    def test_oversized_concurrent_write_aborts(self, allocator, migrator):
        values = data(300, 10)
        arr = make(allocator, values, bits=64)
        free_before = free_per_socket(allocator)
        migration = migrator.start(
            arr, Configuration(Placement.interleaved(), 10),
            budget=MigrationBudget(max_chunks_per_step=1))
        migration.step()
        arr[5] = 1 << 20  # fits the live 64b gen, not the 10b target
        values[5] = np.uint64(1 << 20)
        assert migration.state == "aborted"
        assert migration.step() is False
        # The write landed on the live generation; the array keeps it.
        assert arr.bits == 64
        assert np.array_equal(arr.to_numpy(), values)
        assert free_per_socket(allocator) == free_before


class TestMoveMode:
    def test_pinned_to_interleaved_moves_pages_in_place(
            self, allocator, migrator):
        values = data(2000, 17)
        arr = make(allocator, values, bits=17, pinned=0)
        buf = arr.replicas[0]
        migration = migrator.migrate(
            arr, Configuration(Placement.interleaved(), 17))
        assert migration.state == "completed"
        assert migration.mode == "move"
        assert arr.placement.is_interleaved
        assert arr.generation_epoch == 1
        # Same buffer object: nothing was copied.
        assert arr.replicas[0] is buf
        assert np.array_equal(arr.to_numpy(), values)
        page_map = arr.allocation.page_maps[0]
        n_sockets = allocator.machine.n_sockets
        expected = np.arange(page_map.n_pages) % n_sockets
        assert np.array_equal(page_map.page_to_socket, expected)

    def test_move_budget_bounds_pages_per_step(self, allocator, migrator):
        nbytes = 16 * allocator.machine.page_bytes
        arr = allocate(nbytes, bits=8, allocator=allocator, pinned=0)
        migration = migrator.start(
            arr, Configuration(Placement.single_socket(1), 8),
            budget=MigrationBudget(max_chunks_per_step=4))
        migration.step()
        page_map = arr.allocation.page_maps[0]
        assert (page_map.page_to_socket == 1).sum() == 4
        while migration.step():
            pass
        assert (page_map.page_to_socket == 1).all()

    def test_ledger_tracks_each_page_move(self, allocator, migrator):
        arr = allocate(8 * allocator.machine.page_bytes, bits=8,
                       allocator=allocator, pinned=0)
        ledger = allocator.ledger
        used0 = list(ledger.used_bytes)
        migrator.migrate(arr, Configuration(Placement.single_socket(1), 8))
        moved = used0[0] - ledger.used_bytes[0]
        assert moved > 0
        assert ledger.used_bytes[1] - used0[1] == moved

    def test_replica_reads_in_flight_during_move(self, allocator, migrator):
        # A reader thread hammers the array while pages re-home; every
        # read must match (move mode never touches the words).
        values = data(5000, 21)
        arr = make(allocator, values, bits=21, pinned=0)
        errors = []
        stop = threading.Event()

        def read_loop():
            while not stop.is_set():
                if not np.array_equal(arr.to_numpy(), values):
                    errors.append("torn read")
                    return

        reader = threading.Thread(target=read_loop)
        reader.start()
        try:
            migration = migrator.migrate(
                arr, Configuration(Placement.interleaved(), 21),
                budget=MigrationBudget(max_chunks_per_step=1))
        finally:
            stop.set()
            reader.join()
        assert migration.state == "completed"
        assert errors == []


class TestRoundTrip:
    def test_a_b_a_restores_exact_storage_and_accounting(
            self, allocator, migrator):
        values = data(1000, 30)
        arr = make(allocator, values, bits=64)
        original_words = arr.replicas[0].copy()
        free_before = free_per_socket(allocator)

        migrator.migrate(arr, Configuration(Placement.replicated(), 30))
        assert arr.bits == 30
        migrator.migrate(arr, Configuration(Placement.os_default(), 64))

        assert arr.bits == 64
        assert arr.placement.is_os_default
        assert arr.generation_epoch == 2
        assert np.array_equal(arr.replicas[0], original_words)
        assert free_per_socket(allocator) == free_before


class TestGenerationPinning:
    def test_pinned_generation_defers_reclaim(self, allocator, migrator):
        values = data(2000, 18)
        arr = make(allocator, values, bits=64)
        gen = arr.pin_generation()
        free_start = free_per_socket(allocator)

        migrator.migrate(arr, Configuration(Placement.interleaved(), 18))

        # Old generation retired but pinned: both allocations charged.
        assert gen.retired
        held = free_per_socket(allocator)
        assert sum(held) < sum(free_start)
        # The pinned reader still decodes the old generation at the old
        # width, bit-identically.
        from repro.core.bitpack import unpack_array
        assert np.array_equal(
            unpack_array(gen.buffers[0], arr.length, gen.bits), values)

        gen.unpin()
        drained = free_per_socket(allocator)
        assert sum(drained) > sum(held)

    def test_migrate_cycles_leak_no_allocation(self, allocator, migrator):
        # Other arrays sit before this one in the allocator's live list,
        # so freeing a retired generation has to find it by identity
        # (field-wise equality compared word buffers and raised, and the
        # migrator swallowed that — every cycle leaked an allocation).
        others = [make(allocator, data(500, 20, seed=s), bits=20)
                  for s in range(3)]
        values = data(5000, 20)
        arr = make(allocator, values, bits=20)
        live0, used0 = allocator.live_allocations, allocator.used_bytes()
        for _ in range(3):
            for bits in (32, 20):
                migration = migrator.migrate(
                    arr, Configuration(Placement.interleaved(), bits))
                assert migration.state == "completed"
                assert allocator.live_allocations == live0
        assert allocator.used_bytes() == used0
        assert np.array_equal(arr.to_numpy(), values)
        assert all(o.length == 500 for o in others)

    def test_iterator_spans_one_generation(self, allocator, migrator):
        from repro.core.iterators import SmartArrayIterator

        values = data(64 * 8, 13)
        arr = make(allocator, values, bits=64)
        it = SmartArrayIterator.allocate(arr, 0)
        first = it.take(100)
        migrator.migrate(arr, Configuration(Placement.replicated(), 13))
        rest = it.take(arr.length - 100)
        got = np.concatenate([first, rest])
        assert np.array_equal(got, values)


class TestZoneMaps:
    def test_commit_drops_only_the_migrated_columns_map(
            self, allocator, migrator):
        a = make(allocator, data(640, 9), bits=64)
        b = make(allocator, data(640, 11, seed=1), bits=64)
        table = SmartTable({"a": a, "b": b})
        table.build_zone_map("a", allocator=allocator)
        table.build_zone_map("b", allocator=allocator)
        kept = table.zone_map("b")
        b.stats.reset()
        migrator.migrate(a, Configuration(Placement.interleaved(), 9))
        assert table.zone_map("b") is kept
        assert b.stats.chunk_unpacks == 0
        assert table.zone_map("a") is None

    def test_stale_epoch_dropped_even_without_tables_arg(
            self, allocator, migrator):
        # The migrator knows no tables: the epoch check drops the
        # stale map at lookup time.
        values = data(640, 9)
        arr = make(allocator, values, bits=64)
        table = SmartTable({"k": arr})
        table.build_zone_map("k", allocator=allocator)
        migrator.migrate(arr, Configuration(Placement.interleaved(), 9))
        assert table.zone_map("k") is None


class TestCountersAndScans:
    def test_registry_counters(self, allocator):
        reg = MetricsRegistry()
        migrator = LiveMigrator(allocator, registry=reg)
        arr = make(allocator, data(300, 11), bits=64)
        migrator.migrate(arr, Configuration(Placement.interleaved(), 11))
        bad = make(allocator, data(100, 40), bits=64)
        migrator.migrate(bad, Configuration(Placement.os_default(), 8))
        snap = reg.snapshot()
        assert snap["live.migrations_started"] == 2
        assert snap["live.migrations_completed"] == 1
        assert snap["live.migrations_aborted"] == 1
        assert snap["live.migrations_rolled_back"] == 0
        assert snap["live.chunks_repacked"] >= 5

    def test_scans_race_repack_without_divergence(self, allocator,
                                                  migrator):
        values = data(64 * 80, 26)
        expected = int(values.astype(object).sum())
        arr = make(allocator, values, bits=64)
        migration = migrator.start(
            arr, Configuration(Placement.replicated(), 26),
            budget=MigrationBudget(max_chunks_per_step=1))
        errors = []
        done = threading.Event()

        def drive():
            try:
                while migration.step():
                    pass
            except Exception as exc:  # pragma: no cover - diagnostics
                errors.append(exc)
            finally:
                done.set()

        stepper = threading.Thread(target=drive)
        stepper.start()
        scans = 0
        try:
            while not done.is_set() or scans == 0:
                assert sum_range(arr, 0, arr.length) == expected
                scans += 1
        finally:
            stepper.join()
        assert errors == []
        assert migration.state == "completed"
        assert sum_range(arr, 0, arr.length) == expected
