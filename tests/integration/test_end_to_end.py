"""Integration tests: full pipelines across subsystems.

Each test exercises a realistic multi-module path: data -> smart arrays
-> runtime/graph algorithms -> adaptivity -> reconfiguration, including
the failure paths (capacity exhaustion, concurrent init).
"""

import threading

import numpy as np
import pytest

from repro.adapt import (
    ArrayCharacteristics,
    MachineCapabilities,
    WorkloadMeasurement,
    select_configuration,
)
from repro.core import (
    Placement,
    SmartMap,
    allocate,
    allocate_like,
    machine_context,
    sum_range,
)
from repro.core.errors import AllocationError
from repro.graph import (
    CSRGraph,
    GraphConfig,
    degree_centrality,
    pagerank,
    twitter_like,
)
from repro.interop import SharedSmartArray, aggregate_java, view_of
from repro.numa import (
    GIB,
    InterconnectSpec,
    MachineSpec,
    NumaAllocator,
    SocketSpec,
    machine_2x18_haswell,
    machine_2x8_haswell,
)
from repro.perfmodel import aggregation_profile, simulate
from repro.runtime import WorkerPool, parallel_for, parallel_sum, parallel_sum_bulk


class TestProfileSelectExecutePipeline:
    """The full adaptive loop the paper describes: profile a workload,
    select a configuration, re-allocate, and verify correctness."""

    def test_adaptive_reallocation_roundtrip(self):
        machine = machine_2x18_haswell()
        allocator = NumaAllocator(machine)
        rng = np.random.default_rng(0)
        values = rng.integers(0, 2**33, size=100_000, dtype=np.uint64)

        # 1. initial neutral allocation (uncompressed, interleaved)
        sa = allocate(values.size, interleaved=True, bits=64, values=values,
                      allocator=allocator)
        expected = int(values.astype(object).sum())
        pool = WorkerPool(machine, n_workers=4)
        assert parallel_sum_bulk(sa, pool) == expected

        # 2. profile (simulated counters for the paper-scale equivalent)
        run = simulate(aggregation_profile(64), machine,
                       Placement.interleaved())
        measurement = WorkloadMeasurement(
            counters=run.counters,
            linear_accesses_per_element=10.0,
            accesses_per_second=1e9 / run.time_s,
        )

        # 3. select
        caps = MachineCapabilities(machine)
        array_spec = ArrayCharacteristics(length=10**9, element_bits=33)
        result = select_configuration(caps, array_spec, measurement)
        config = result.configuration
        assert config.placement.is_replicated and config.bits == 33

        # 4. re-allocate under the chosen configuration and re-verify
        chosen = allocate(
            values.size,
            replicated=config.placement.is_replicated,
            interleaved=config.placement.is_interleaved,
            pinned=config.placement.socket if config.placement.is_pinned else None,
            bits=config.bits,
            values=values,
            allocator=allocator,
        )
        assert parallel_sum_bulk(chosen, pool) == expected
        assert chosen.storage_bytes < sa.storage_bytes  # compression won


class TestGraphPipeline:
    def test_generate_store_analyze_reconfigure(self):
        machine = machine_2x8_haswell()
        allocator = NumaAllocator(machine)
        src, dst = twitter_like(5_000, seed=3)
        graph = CSRGraph.from_edges(src, dst, n_vertices=5_000,
                                    allocator=allocator)

        baseline_ranks = pagerank(graph).ranks.to_numpy()
        baseline_dc = degree_centrality(graph).to_numpy()

        # Sweep the Figure 11/12 configurations; results must be
        # bit-identical under every placement/compression combination.
        for config in (
            GraphConfig.uncompressed(Placement.replicated()),
            GraphConfig.compressed_vertices(Placement.single_socket(1)),
            GraphConfig.compressed_all(Placement.interleaved()),
        ):
            g = graph.reconfigure(config, allocator=allocator)
            np.testing.assert_allclose(
                pagerank(g).ranks.to_numpy(), baseline_ranks, atol=1e-12
            )
            np.testing.assert_array_equal(
                degree_centrality(g).to_numpy(), baseline_dc
            )

    def test_graph_memory_accounting_through_ledger(self):
        machine = machine_2x8_haswell()
        allocator = NumaAllocator(machine)
        before = allocator.used_bytes()
        src, dst = twitter_like(2_000, seed=1)
        g = CSRGraph.from_edges(
            src, dst, n_vertices=2_000,
            config=GraphConfig(placement=Placement.replicated()),
            allocator=allocator,
        )
        # Ledger grew by at least the graph's physical bytes.
        assert allocator.used_bytes() - before >= g.memory_bytes()


class TestInteropPipeline:
    def test_native_java_shared_memory_same_answer(self):
        values = np.arange(3_000, dtype=np.uint64)
        sa = allocate(values.size, bits=33, values=values)
        native_sum = sum_range(sa)
        java_sum = aggregate_java(sa)
        view_sum = int(view_of(sa).to_numpy().sum())
        with SharedSmartArray.create(values, bits=33) as shm:
            shm_sum = int(shm.to_numpy().sum())
        assert native_sum == java_sum == view_sum == shm_sum

    def test_smart_map_over_graph_output(self):
        # PGX-ish pattern: map external IDs -> degree property.
        allocator = NumaAllocator(machine_2x8_haswell())
        src, dst = twitter_like(1_000, seed=4)
        g = CSRGraph.from_edges(src, dst, n_vertices=1_000,
                                allocator=allocator)
        degrees = degree_centrality(g).to_numpy()
        external_ids = (np.arange(1_000) * 977 + 13) % (1 << 30)
        m = SmartMap.from_items(
            zip(external_ids.tolist(), degrees.tolist()),
            allocator=allocator,
        )
        for i in (0, 500, 999):
            assert m[int(external_ids[i])] == int(degrees[i])


class TestCapacityFailures:
    """Failure injection: tiny machines must fail loudly, not corrupt."""

    @staticmethod
    def tiny_machine(mem_mib=1):
        socket = SocketSpec(
            cores=2, threads_per_core=1, clock_ghz=2.0,
            memory_bytes=mem_mib * 1024 * 1024,
            local_bandwidth_gbs=10.0, local_latency_ns=80.0,
        )
        return MachineSpec(
            name="tiny", sockets=(socket, socket),
            interconnect=InterconnectSpec(2.0, 120.0),
        )

    def test_replication_fails_when_over_capacity(self):
        allocator = NumaAllocator(self.tiny_machine())
        words = (1024 * 1024 // 8) + 4096  # just over 1 MiB per replica
        with pytest.raises(AllocationError):
            allocate(words, replicated=True, bits=64, allocator=allocator)
        # failed allocation must not leak ledger charge
        assert allocator.used_bytes() == 0

    def test_compression_fits_where_uncompressed_does_not(self):
        allocator = NumaAllocator(self.tiny_machine())
        n = 900_000  # 7.2 MB at 64 bits, ~0.9 MB at 8 bits
        with pytest.raises(AllocationError):
            allocate(n, replicated=True, bits=64, allocator=allocator)
        sa = allocate(n, replicated=True, bits=8, allocator=allocator)
        assert sa.n_replicas == 2

    def test_machine_context_isolation(self):
        with machine_context(self.tiny_machine()):
            with pytest.raises(AllocationError):
                allocate(10**7, bits=64)
        # default context restored; a normal allocation works again
        sa = allocate(1000, bits=64)
        assert sa.length == 1000


class TestConcurrency:
    def test_concurrent_init_locked_is_consistent(self):
        sa = allocate(64, bits=33, replicated=True)
        errors = []

        def writer(start):
            try:
                for i in range(start, 64, 4):
                    sa.init_locked(i, i * 2)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for i in range(64):
            assert sa.get(i, replica=0) == i * 2
            assert sa.get(i, replica=1) == i * 2

    def test_parallel_for_over_smart_array_writes(self):
        machine = machine_2x8_haswell()
        allocator = NumaAllocator(machine)
        pool = WorkerPool(machine, n_workers=4)
        n = 10_000
        sa = allocate(n, bits=32, allocator=allocator)

        def body(start, end, ctx):
            idx = np.arange(start, end, dtype=np.int64)
            sa.scatter_many(idx, idx % (1 << 32 - 1))

        # Batches are disjoint index ranges; 32-bit elements are whole
        # words in storage, so concurrent batch writes cannot conflict.
        parallel_for(n, body, pool, batch=257)
        np.testing.assert_array_equal(
            sa.to_numpy(), np.arange(n, dtype=np.uint64) % (1 << 31)
        )
