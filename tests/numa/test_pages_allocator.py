"""Tests for the page ledger and the NUMA allocator."""

import numpy as np
import pytest

from repro.core import Placement
from repro.core.errors import AllocationError
from repro.numa import (
    MemoryLedger,
    NumaAllocator,
    PageMap,
    machine_2x8_haswell,
    pages_for,
)


@pytest.fixture
def machine():
    return machine_2x8_haswell()


class TestPagesFor:
    def test_rounding(self):
        assert pages_for(0, 4096) == 1
        assert pages_for(1, 4096) == 1
        assert pages_for(4096, 4096) == 1
        assert pages_for(4097, 4096) == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            pages_for(-1, 4096)


class TestPageMap:
    def test_pinned(self):
        pm = PageMap.pinned(10_000, socket=1, page_bytes=4096)
        assert pm.n_pages == 3
        assert pm.bytes_on_socket(1) == 3 * 4096
        assert pm.bytes_on_socket(0) == 0
        assert pm.socket_of_offset(0) == 1

    def test_interleaved_round_robin(self):
        pm = PageMap.interleaved(4096 * 5, n_sockets=2, page_bytes=4096)
        np.testing.assert_array_equal(pm.page_to_socket, [0, 1, 0, 1, 0])
        assert pm.socket_of_offset(4096) == 1

    def test_interleaved_start_offset(self):
        pm = PageMap.interleaved(4096 * 4, n_sockets=2, page_bytes=4096, start=1)
        np.testing.assert_array_equal(pm.page_to_socket, [1, 0, 1, 0])

    def test_first_touch_single_thread(self):
        # Single-threaded init -> everything on the toucher's socket
        # (section 5.1's observation about OS default).
        pm = PageMap.first_touch(4096 * 8, [1], page_bytes=4096)
        assert pm.bytes_on_socket(1) == 8 * 4096

    def test_first_touch_multi_thread_blocks(self):
        pm = PageMap.first_touch(4096 * 8, [0, 1], page_bytes=4096)
        assert pm.bytes_on_socket(0) == 4 * 4096
        assert pm.bytes_on_socket(1) == 4 * 4096
        # blocked, not interleaved
        np.testing.assert_array_equal(
            pm.page_to_socket, [0, 0, 0, 0, 1, 1, 1, 1]
        )

    def test_first_touch_empty_touchers(self):
        with pytest.raises(ValueError):
            PageMap.first_touch(4096, [], page_bytes=4096)

    def test_socket_fractions(self):
        pm = PageMap.interleaved(4096 * 4, n_sockets=2, page_bytes=4096)
        np.testing.assert_allclose(pm.socket_fractions(2), [0.5, 0.5])

    def test_offset_bounds(self):
        pm = PageMap.pinned(4096, 0, 4096)
        with pytest.raises(IndexError):
            pm.socket_of_offset(4096)


class TestMemoryLedger:
    def test_charge_and_release(self, machine):
        ledger = MemoryLedger(machine)
        pm = PageMap.pinned(1 << 20, 0, machine.page_bytes)
        ledger.charge(pm)
        assert ledger.used_bytes[0] == 1 << 20
        ledger.release(pm)
        assert ledger.used_bytes[0] == 0

    def test_capacity_exceeded(self, machine):
        ledger = MemoryLedger(machine)
        too_big = machine.sockets[0].memory_bytes + machine.page_bytes
        with pytest.raises(AllocationError):
            ledger.charge(PageMap.pinned(too_big, 0, machine.page_bytes))
        # Failed charge must not leave partial accounting.
        assert ledger.used_bytes == [0, 0]

    def test_release_more_than_charged(self, machine):
        ledger = MemoryLedger(machine)
        with pytest.raises(AllocationError):
            ledger.release(PageMap.pinned(4096, 0, machine.page_bytes))

    def test_free_bytes(self, machine):
        ledger = MemoryLedger(machine)
        assert ledger.free_bytes(0) == machine.sockets[0].memory_bytes

    def test_snapshot(self, machine):
        ledger = MemoryLedger(machine)
        assert ledger.snapshot() == {0: 0, 1: 0}


class TestNumaAllocator:
    def test_replicated_allocation(self, machine):
        alloc = NumaAllocator(machine)
        a = alloc.allocate_words(1000, Placement.replicated())
        assert a.n_replicas == 2
        assert a.page_maps[0].bytes_on_socket(0) == a.page_maps[0].nbytes
        assert a.page_maps[1].bytes_on_socket(1) == a.page_maps[1].nbytes
        assert a.nbytes_physical == 2 * a.nbytes_logical

    def test_single_socket_allocation(self, machine):
        alloc = NumaAllocator(machine)
        a = alloc.allocate_words(1000, Placement.single_socket(1))
        assert a.n_replicas == 1
        assert a.page_maps[0].bytes_on_socket(1) == a.page_maps[0].nbytes

    def test_interleaved_allocation(self, machine):
        alloc = NumaAllocator(machine)
        a = alloc.allocate_words(4096, Placement.interleaved())  # 8 pages
        fracs = a.page_maps[0].socket_fractions(2)
        np.testing.assert_allclose(fracs, [0.5, 0.5])

    def test_os_default_single_toucher(self, machine):
        alloc = NumaAllocator(machine)
        a = alloc.allocate_words(1000, Placement.os_default())
        assert a.page_maps[0].bytes_on_socket(0) == a.page_maps[0].nbytes

    def test_os_default_multi_toucher(self, machine):
        alloc = NumaAllocator(machine)
        a = alloc.allocate_words(
            4096, Placement.os_default(), toucher_sockets=[0, 1]
        )
        assert a.page_maps[0].bytes_on_socket(0) > 0
        assert a.page_maps[0].bytes_on_socket(1) > 0

    def test_replica_for_socket(self, machine):
        alloc = NumaAllocator(machine)
        repl = alloc.allocate_words(100, Placement.replicated())
        assert repl.replica_for_socket(1) == 1
        single = alloc.allocate_words(100, Placement.single_socket(0))
        assert single.replica_for_socket(1) == 0

    def test_buffers_are_zeroed_uint64(self, machine):
        alloc = NumaAllocator(machine)
        a = alloc.allocate_words(10, Placement.interleaved())
        assert a.buffers[0].dtype == np.uint64
        assert not a.buffers[0].any()

    def test_ledger_accounting_and_free(self, machine):
        alloc = NumaAllocator(machine)
        a = alloc.allocate_words(1 << 16, Placement.replicated())
        assert alloc.used_bytes() == a.nbytes_physical
        assert alloc.live_allocations == 1
        alloc.free(a)
        assert alloc.used_bytes() == 0
        assert alloc.live_allocations == 0

    def test_double_free_rejected(self, machine):
        alloc = NumaAllocator(machine)
        a = alloc.allocate_words(16, Placement.interleaved())
        alloc.free(a)
        with pytest.raises(AllocationError):
            alloc.free(a)

    def test_free_finds_a_later_allocation_by_identity(self, machine):
        alloc = NumaAllocator(machine)
        a = alloc.allocate_words(16, Placement.interleaved())
        used = alloc.used_bytes()
        b = alloc.allocate_words(16, Placement.interleaved())
        alloc.free(b)  # used to compare b's buffers with a's and raise
        assert alloc.live_allocations == 1
        assert alloc.used_bytes() == used
        assert a != b and len({a, b}) == 2

    def test_foreign_allocation_rejected_untouched(self, machine):
        ours, theirs = NumaAllocator(machine), NumaAllocator(machine)
        a = theirs.allocate_words(16, Placement.interleaved())
        ours.allocate_words(16, Placement.interleaved())
        used = ours.used_bytes()
        with pytest.raises(AllocationError, match="not made by"):
            ours.free(a)
        assert not a.freed and ours.used_bytes() == used
        theirs.free(a)

    def test_negative_words_rejected(self, machine):
        with pytest.raises(AllocationError):
            NumaAllocator(machine).allocate_words(-1, Placement.interleaved())

    def test_capacity_enforced_per_socket(self, machine):
        alloc = NumaAllocator(machine)
        words = machine.sockets[0].memory_bytes // 8 + machine.page_bytes
        with pytest.raises(AllocationError):
            alloc.allocate_words(words, Placement.single_socket(0))

    def test_can_fit_on_every_socket(self, machine):
        alloc = NumaAllocator(machine)
        assert alloc.can_fit_on_every_socket(machine.sockets[0].memory_bytes)
        assert not alloc.can_fit_on_every_socket(
            machine.sockets[0].memory_bytes + 1
        )
