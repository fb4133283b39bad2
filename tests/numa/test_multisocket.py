"""Tests on machines with more than two sockets.

The paper evaluates on 2-socket boxes but builds on Callisto, which
targets up to 8 sockets; the substrate must generalize.
"""

import numpy as np
import pytest

from repro.core import Placement, allocate
from repro.numa import (
    BandwidthModel,
    InterconnectSpec,
    MachineSpec,
    NumaAllocator,
    SocketSpec,
)
from repro.runtime import WorkerPool, build_contexts, parallel_sum_bulk


def machine_n(n_sockets: int) -> MachineSpec:
    socket = SocketSpec(
        cores=8, threads_per_core=2, clock_ghz=2.4,
        memory_bytes=8 << 30, local_bandwidth_gbs=49.3,
        local_latency_ns=77.0,
    )
    return MachineSpec(
        name=f"{n_sockets}-socket test box",
        sockets=tuple(socket for _ in range(n_sockets)),
        interconnect=InterconnectSpec(8.0, 130.0),
    )


@pytest.fixture
def m4():
    return machine_n(4)


class TestTopology:
    def test_thread_mapping_4_sockets(self, m4):
        assert m4.total_hardware_threads == 64
        assert m4.socket_of_thread(0) == 0
        assert m4.socket_of_thread(16) == 1
        assert m4.socket_of_thread(63) == 3

    def test_single_socket_machine(self):
        m1 = machine_n(1)
        bm = BandwidthModel(m1)
        # With one socket, interleaved degenerates to replicated.
        assert bm.interleaved_gbs() == bm.replicated_gbs()
        assert bm.interconnect_share(Placement.interleaved()) == 0.0
        assert bm.random_access_latency_ns(Placement.single_socket(0)) > 0


class TestAllocation:
    def test_replication_one_replica_per_socket(self, m4):
        allocator = NumaAllocator(m4)
        sa = allocate(1000, replicated=True, bits=16, allocator=allocator)
        assert sa.n_replicas == 4
        for s in range(4):
            pm = sa.allocation.page_maps[s]
            assert pm.bytes_on_socket(s) == pm.nbytes

    def test_interleave_round_robins_4_ways(self, m4):
        allocator = NumaAllocator(m4)
        sa = allocate(4096 * 2, bits=64, interleaved=True,
                      allocator=allocator)  # 16 pages
        fracs = sa.allocation.page_maps[0].socket_fractions(4)
        np.testing.assert_allclose(fracs, [0.25] * 4)

    def test_replica_for_each_socket(self, m4):
        allocator = NumaAllocator(m4)
        sa = allocate(100, replicated=True, bits=8,
                      values=np.arange(100) % 256, allocator=allocator)
        for s in range(4):
            assert sa.get(42, replica=s) == 42
            assert sa.get_replica(s) is sa.allocation.buffers[s]


class TestRuntime:
    def test_contexts_cover_all_sockets(self, m4):
        ctxs = build_contexts(m4, 8)
        assert [c.socket for c in ctxs] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_parallel_sum_on_4_socket_machine(self, m4):
        allocator = NumaAllocator(m4)
        pool = WorkerPool(m4, n_workers=8)
        values = np.arange(20_000, dtype=np.uint64)
        sa = allocate(values.size, replicated=True, bits=15, values=values,
                      allocator=allocator)
        assert parallel_sum_bulk(sa, pool) == int(values.sum())


class TestBandwidthScaling:
    def test_replicated_scales_with_sockets(self):
        # Linear in socket count from 2 sockets up (the 1-socket case
        # uses the single-controller efficiency, so it sits slightly
        # above the per-socket multi-socket share).
        bws = [
            BandwidthModel(machine_n(n)).replicated_gbs() for n in (2, 4, 8)
        ]
        assert bws[1] == pytest.approx(2 * bws[0], rel=1e-6)
        assert bws[2] == pytest.approx(4 * bws[0], rel=1e-6)
        one = BandwidthModel(machine_n(1)).replicated_gbs()
        assert one == BandwidthModel(machine_n(1)).single_socket_gbs()

    def test_single_socket_does_not_scale(self):
        bws = [
            BandwidthModel(machine_n(n)).single_socket_gbs() for n in (2, 4)
        ]
        assert bws[0] == bws[1]

    def test_interleave_share_grows_with_sockets(self):
        # More sockets -> larger remote fraction under interleaving.
        s2 = BandwidthModel(machine_n(2)).interconnect_share(
            Placement.interleaved()
        )
        s4 = BandwidthModel(machine_n(4)).interconnect_share(
            Placement.interleaved()
        )
        assert s4 > s2
