"""Documentation honesty: the README/API snippets must actually run."""

import os

import numpy as np
import pytest

DOCS_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "docs")


class TestReadmeQuickstart:
    def test_quickstart_block(self):
        # The README's quickstart, verbatim in spirit.
        import repro

        values = np.random.default_rng(0).integers(
            0, 2**33, size=10_000, dtype=np.uint64
        )
        sa = repro.allocate(len(values), replicated=True, bits=33,
                            values=values)
        assert sa.get(12345 % len(sa)) == int(values[12345 % len(values)])
        sa.init(0, 42)
        sa.unpack(0)
        it = repro.SmartArrayIterator.allocate(sa, 0)
        total = 0
        for _ in range(100):
            total += it.get()
            it.next()
        from repro.runtime import parallel_sum

        expected = 42 + int(values[1:].astype(object).sum())
        assert parallel_sum(sa) == expected

        # ... and the same arrays behind SQL over TCP, each query on
        # its session's thread.
        from repro.server import SmartArrayServer, demo_catalog
        from repro.server.client import connect

        catalog = demo_catalog(rows=10_000)
        ts = catalog.tables()["events"]["ts"].to_numpy()
        amount = catalog.tables()["events"]["amount"].to_numpy()
        with SmartArrayServer(catalog, port=0) as server:
            assert server.pool.mode == "serial"
            with connect(port=server.port) as conn:
                assert conn.sql(
                    "SELECT sum(amount) FROM events WHERE ts < 9000"
                ).scalar() == int(amount[ts < 9000].sum())

    def test_install_surface(self):
        # Everything the README names must import.
        import repro
        from repro import (
            MachineSpec,
            Placement,
            SmartArray,
            SmartArrayIterator,
            allocate,
            allocate_like,
            machine_2x18_haswell,
            machine_2x8_haswell,
        )

        assert repro.__version__


class TestApiGuideSnippets:
    def test_creation_forms(self):
        import repro

        for kwargs in (
            dict(replicated=True, bits=33),
            dict(interleaved=True, bits=64),
            dict(pinned=0, bits=10),
            dict(),
        ):
            sa = repro.allocate(100, **kwargs)
            assert len(sa) == 100
        sa = repro.allocate(3, bits=None, values=[1, 5, 200])
        assert sa.bits == 8

    def test_parallel_loop_forms(self):
        # "Parallel loops" and "The bulk-span scan engine" item 3.
        import repro
        from repro.core.scan_ops import (count_in_range, min_max,
                                         select_in_range)
        from repro.core.table import SmartTable
        from repro.numa import NumaAllocator, machine_2x8_haswell
        from repro.query import Query, in_range
        from repro.runtime import (WorkerPool, parallel_for, parallel_sum,
                                   parallel_sum_bulk)

        machine = machine_2x8_haswell()
        alloc = NumaAllocator(machine)
        n, lo, hi = 10_000, 100, 900
        values = np.arange(n, dtype=np.uint64) % 1000
        a1 = repro.allocate(n, bits=10, values=values, replicated=True,
                            allocator=alloc)
        a2 = repro.allocate(n, bits=10, values=values, allocator=alloc)
        sa = a1
        pool = WorkerPool(machine, n_workers=8)
        seen = []
        parallel_for(n, lambda start, end, ctx: seen.append(end - start),
                     pool, batch=4096)
        assert sorted(seen) == [n - 8192, 4096, 4096]
        expected = 2 * int(values.sum())
        assert parallel_sum([a1, a2], pool) == expected
        assert parallel_sum_bulk([a1, a2], pool, batch=4096) == expected
        with pytest.raises(ValueError, match="multiple of 64"):
            parallel_sum_bulk(sa, pool, batch=100)

        t = SmartTable({"v": sa})
        assert Query(t).where(in_range("v", lo, hi)).count().run(
            pool=pool).scalar() == count_in_range(sa, lo, hi)
        np.testing.assert_array_equal(
            Query(t).where(in_range("v", lo, hi)).select().run(
                pool=pool).rows,
            select_in_range(sa, lo, hi))
        assert tuple(Query(t).min("v").max("v").run(pool=pool).aggregates
                     .values()) == min_max(sa)

    def test_machine_context_form(self):
        import repro
        from repro import machine_context, machine_2x8_haswell

        with machine_context(machine_2x8_haswell()):
            sa = repro.allocate(100, replicated=True, bits=16)
            assert sa.n_replicas == 2

    def test_collections_forms(self):
        from repro.core import (
            SmartMap,
            SortedSmartMap,
            ZoneMap,
            allocate,
            count_in_range,
            encode_array,
            sum_range,
        )

        m = SmartMap.from_items([(1, 10), (2, 20)])
        assert m[2] == 20
        s = SortedSmartMap.from_items([(1, 10), (5, 50)])
        assert list(s.range_query(0, 6)) == [(1, 10), (5, 50)]
        enc = encode_array(np.array([9, 9, 4], dtype=np.uint64), "dict")
        assert count_in_range(enc, 4, 5) == 1
        rle = encode_array(np.array([7, 7, 8], dtype=np.uint64), "rle")
        assert sum_range(rle) == 22
        # "Selection scans and zone maps".
        sa = allocate(130, bits=8, values=np.arange(130))
        zm = sa.zone_map = ZoneMap.build(sa)
        sa.stats.reset()
        assert count_in_range(sa, 0, 10) == 10
        assert sa.stats.chunk_unpacks == 1  # chunks 1 and 2 pruned
        assert zm.candidate_chunks(0, 10).tolist() == [0]
        assert zm.synopsis("sum", (1, 3)) == sum(range(64, 130))

    def test_adaptivity_forms(self):
        from repro.adapt import (
            ArrayCharacteristics,
            MachineCapabilities,
            WorkloadMeasurement,
            evaluate_grid,
            select_configuration,
        )
        from repro.numa import PerfCounters, machine_2x18_haswell

        caps = MachineCapabilities(machine_2x18_haswell())
        measurement = WorkloadMeasurement(
            counters=PerfCounters(
                time_s=0.1, instructions=5e8, bytes_from_memory=8e9,
                memory_bandwidth_gbs=80.0, memory_bound=True,
            ),
            linear_accesses_per_element=10.0,
            accesses_per_second=1e10,
        )
        result = select_configuration(
            caps, ArrayCharacteristics(length=10**9, element_bits=33),
            measurement,
        )
        assert result.configuration.placement is not None

    def test_query_engine_forms(self):
        # The API guide's "Query engine" section, verbatim in spirit.
        from repro.core import SmartTable
        from repro.query import Query, col, in_range
        from repro.runtime import default_pool

        rng = np.random.default_rng(3)
        ts = np.sort(rng.integers(0, 50_000, 5000)).astype(np.uint64)
        amount = rng.integers(0, 1000, 5000).astype(np.uint64)
        t = SmartTable.from_arrays(
            {"ts": ts, "amount": amount, "region": amount % np.uint64(4)},
            replicated=True,
        )
        t.build_zone_map("ts")

        q = Query(t).where(in_range("ts", 10_000, 20_000)) \
            .sum("amount").count()
        assert "pushed-down predicates" in q.explain()
        result = q.run()
        mask = (ts >= 10_000) & (ts < 20_000)
        assert result["sum(amount)"] == int(amount[mask].sum())
        assert result["count(*)"] == int(mask.sum())

        par = q.run(pool=default_pool(8))
        assert par.aggregates == result.aggregates

        groups = Query(t).group_by("region").sum("amount").run().groups
        assert set(groups) == set(np.unique(amount % np.uint64(4)).tolist())
        rows = Query(t).where(col("ts") >= 10_000).select("amount") \
            .limit(5).run().rows
        assert rows.size == 5

    def test_compiled_kernel_forms(self):
        # The API guide's "Compiled kernels" section, verbatim in spirit.
        from repro.core import SmartTable
        from repro.query import Query, col, in_range, lit

        rng = np.random.default_rng(3)
        ts = np.sort(rng.integers(0, 50_000, 5000)).astype(np.uint64)
        amount = rng.integers(0, 1000, 5000).astype(np.uint64)
        t = SmartTable.from_arrays(
            {"ts": ts, "amount": amount}, replicated=True
        )
        t.build_zone_map("ts")

        q = Query(t).where(in_range("ts", 10_000, 20_000)).sum("amount")
        r = q.run()
        assert r.stats.mode == "compiled"
        assert r.aggregates == {
            "sum(amount)": int(amount[(ts >= 10_000) & (ts < 20_000)].sum())}

        explained = q.plan().explain()
        assert "execution mode: compiled (fused kernel)" in explained
        assert "def kernel(" in explained

        rows_q = Query(t).select("amount").limit(5)
        plan = rows_q.plan()
        assert "rows.append(np.arange(base, end, dtype=np.int64))" in \
            plan.kernel.source
        assert plan.morsel_elements == 4096
        assert rows_q.run().columns["amount"].tolist() == \
            amount[:5].tolist()

        # The group-by kernel the section prints is the generated one.
        t3 = SmartTable.from_arrays(
            {"ts": ts, "amount": amount, "region": amount % np.uint64(4)},
            replicated=True,
        )
        g = (Query(t3).where(in_range("ts", 10_000, 20_000))
             .group_by("region").sum("amount").count())
        assert g.run().stats.mode == "compiled"
        with open(os.path.join(DOCS_DIR, "API.md"), encoding="utf-8") as fh:
            api = fh.read()
        plan = g.plan()
        assert plan.kernel.source in api
        # The bounds are runtime parameters; explain() prints their
        # values under the source, and the section shows that line.
        assert "np.uint64(10000)" not in plan.kernel.source
        assert plan.kernel.literals == (10_000, 20_000)
        bound = "  literals: lits[0] = 10000, lits[1] = 20000"
        assert plan.explain().endswith(bound)
        assert bound in api

        # The section's execution-detail notes: constant comparisons
        # fail at construction; limit() skips morsels once satisfied.
        with pytest.raises(ValueError, match="references no column"):
            lit(3) < lit(5)
        limited = Query(t).where(col("ts") >= 0).select("amount") \
            .limit(5).run()
        assert limited.rows.size == 5
        assert limited.stats.morsels_skipped > 0

    def test_observability_forms(self):
        # The API guide's "Observability" section, verbatim in spirit.
        import repro
        from repro.obs import (
            TRACER,
            measurement_from_json,
            prometheus_text,
            registry,
            render_span_tree,
            trace,
            trace_to_json,
            tracing,
        )

        reg = registry()
        reg.counter("docs.example", array="a0").add(64)
        assert reg.value("docs.example", array="a0") == 64
        assert "docs.example{array=a0}" in reg.values("docs.")
        reg.gauge("docs.pool_workers").set(8)
        reg.histogram("docs.wall_time_s").observe(0.012)
        snap = reg.snapshot()
        reg.counter("docs.example", array="a0").add(1)
        assert reg.delta(snap)["docs.example{array=a0}"] == 1

        TRACER.clear()
        values = np.arange(5000, dtype=np.uint64) % 997
        sa = repro.allocate(5000, bits=10, values=values, replicated=True)
        from repro.runtime import default_pool, parallel_sum_bulk

        with tracing():
            with trace("docs.region", array=sa.stats.array_label):
                total = parallel_sum_bulk(sa, pool=default_pool(2),
                                          batch=4096)
        assert total == int(values.sum())
        spans = TRACER.pop_finished()
        span = spans[0]
        assert span.name == "docs.region"
        assert span.duration_s >= 0
        assert span.counter_total(
            "core.chunk_unpacks", array=sa.stats.array_label) > 0

        assert "docs.region" in render_span_tree(span)
        assert "repro_docs_example" in prometheus_text(reg)
        dump = trace_to_json(spans)
        m = measurement_from_json(dump, span_name="scan.parallel_sum",
                                  bits=sa.bits)
        from repro.adapt import MachineCapabilities, select_configuration
        from repro.adapt.inputs import ArrayCharacteristics
        from repro.numa import machine_2x18_haswell

        result = select_configuration(
            MachineCapabilities(machine_2x18_haswell()),
            ArrayCharacteristics(length=len(sa), element_bits=sa.bits,
                                 scan_engine="blocked"),
            m,
        )
        assert result.configuration.placement is not None
        reg.drop(["docs.example{array=a0}", "docs.pool_workers",
                  "docs.wall_time_s"])

    def test_sql_server_forms(self):
        # The API guide's "SQL & server" section, verbatim in spirit.
        from repro.core import SmartTable
        from repro.server import Catalog, SmartArrayServer
        from repro.server.client import ServerError, connect
        from repro.sql import SqlError, compile_sql

        rng = np.random.default_rng(3)
        ts = np.sort(rng.integers(0, 50_000, 5000)).astype(np.uint64)
        amount = rng.integers(0, 1000, 5000).astype(np.uint64)
        table = SmartTable.from_arrays(
            {"ts": ts, "amount": amount}, replicated=True
        )
        table.build_zone_map("ts")

        query = compile_sql(
            "SELECT sum(amount) AS total FROM events "
            "WHERE ts >= 1_000 AND ts < 9_000", {"events": table})
        mask = (ts >= 1_000) & (ts < 9_000)
        assert query.run().aggregates["total"] == int(amount[mask].sum())

        with pytest.raises(SqlError) as info:
            compile_sql("SELECT wat FROM events", {"events": table})
        exc = info.value
        assert exc.kind == "bind"
        assert (exc.line, exc.column) == (1, 8)
        assert "^" in exc.format()

        catalog = Catalog()
        catalog.register("events", table)
        with SmartArrayServer(catalog, port=0, n_workers=4) as server:
            with connect(port=server.port) as conn:
                assert conn.ping()
                assert conn.tables()["events"]["rows"] == 5000
                r = conn.sql(
                    "SELECT sum(amount) FROM events WHERE ts < 9000"
                )
                assert r.scalar() == int(amount[ts < 9000].sum())
                assert r.stats["decoded_chunks"]
                groups = conn.sql(
                    "SELECT ts, sum(amount) FROM events "
                    "WHERE ts < 64 GROUP BY ts"
                ).groups
                assert all(isinstance(k, int) for k in groups)
                assert "morsel" in conn.explain(
                    "SELECT count(*) FROM events"
                ).lower()
                with pytest.raises(ServerError) as srv_info:
                    conn.sql("SELECT wat FROM events")
                assert srv_info.value.type == "bind"
                assert srv_info.value.error["column"] == 8
                assert "^" in srv_info.value.context
                assert "repro_server_queries" in conn.metrics()

    def test_live_adaptation_forms(self):
        # The API guide's "Live adaptation" section, verbatim in spirit.
        import numpy as np

        from repro import allocate, machine_2x8_haswell
        from repro.adapt import Configuration, MachineCapabilities
        from repro.core.placement import Placement
        from repro.live import (
            LiveAdaptationDaemon,
            LiveMigrator,
            MigrationBudget,
        )
        from repro.numa import NumaAllocator

        machine = machine_2x8_haswell()
        alloc = NumaAllocator(machine)
        values = np.random.default_rng(0).integers(
            0, 2**33, size=50_000, dtype=np.uint64
        )
        sa = allocate(len(values), bits=64, allocator=alloc, values=values)

        migrator = LiveMigrator(alloc)
        target = Configuration(Placement.replicated(), bits=33)
        m = migrator.start(
            sa, target, budget=MigrationBudget(max_chunks_per_step=256)
        )
        while m.step():
            assert sa.get(123) == int(values[123])
        assert m.state == "completed" and sa.bits == 33

        gen = sa.generation
        assert gen.epoch == 1 and gen.bits == 33
        pinned = sa.pin_generation()
        pinned.unpin()

        sa2 = allocate(len(values), bits=64, allocator=alloc, values=values)
        daemon = LiveAdaptationDaemon(
            sa2, MachineCapabilities(machine), LiveMigrator(alloc),
            budget=MigrationBudget(max_chunks_per_step=512),
            window=3,
            drift_threshold=0.25,
            cooldown=3,
            regression_threshold=0.5,
            verify_ticks=2,
        )
        for _ in range(10):
            assert sa2.to_numpy().sum() >= 0
            daemon.tick(elapsed_s=0.01)
        timeline = daemon.format_timeline()
        for kind in ("measure", "decide", "migrate_done", "accept"):
            assert kind in timeline
        assert sa2.bits == 33 and sa2.placement.is_replicated


class TestCompressionCodecsSection:
    def test_codec_snippet(self):
        # docs/API.md "Compression codecs as first-class storage
        # layouts", verbatim in spirit.
        import numpy as np

        from repro import allocate
        from repro.adapt import Configuration
        from repro.core.placement import Placement
        from repro.core.scan_ops import count_in_range
        from repro.core.table import SmartTable
        from repro.live import LiveMigrator
        from repro.numa import NumaAllocator, machine_2x8_haswell
        from repro.query import in_range

        alloc = NumaAllocator(machine_2x8_haswell())
        rng = np.random.default_rng(0)
        dictionary = rng.integers(2**50, 2**60, size=32, dtype=np.uint64)
        column = dictionary[rng.integers(0, 32, size=100_000)]

        codec = "dict"

        enc = allocate(len(column), codec=codec, values=column,
                       allocator=alloc)
        lo, hi = int(dictionary[4]), int(dictionary[20])
        assert count_in_range(enc, lo, hi) == int(
            ((column >= lo) & (column < hi)).sum()
        )

        sa = allocate(len(column), bits=None, values=column,
                      allocator=alloc)
        m = LiveMigrator(alloc).migrate(
            sa, Configuration(Placement.interleaved(), 64, codec)
        )
        assert m.state == "completed" and sa.codec == codec

        t = SmartTable.from_arrays({"k": column}, allocator=alloc,
                                   codecs={"k": codec})
        n = t.query().where(in_range("k", lo, hi)).count().run()["count(*)"]
        assert n == count_in_range(enc, lo, hi)


class TestClusterSection:
    def test_cluster_snippet(self):
        # docs/API.md "Cluster: sharded multi-node execution", verbatim
        # in spirit.
        import numpy as np

        from repro.cluster import ShardedTable, cluster_of
        from repro.query import Query, in_range

        rng = np.random.default_rng(5)
        ts = np.sort(rng.integers(0, 50_000, 20_000)).astype(np.uint64)
        amount = rng.integers(0, 1000, 20_000).astype(np.uint64)

        cluster = cluster_of(2)
        events = ShardedTable.from_arrays(
            {"ts": ts, "amount": amount}, key="ts", cluster=cluster,
            mode="range",
            replicate=("amount",),
        )

        q = Query(events).where(in_range("ts", 1_000, 9_000)).sum("amount")
        plan = q.plan()
        text = plan.explain()
        assert "candidate" in text and "plan frame" in text
        result = plan.execute()

        mask = (ts >= 1_000) & (ts < 9_000)
        expected = int(amount[mask].astype(object).sum())
        assert result.aggregates["sum(amount)"] == expected
        twin = Query(events.gather()).where(
            in_range("ts", 1_000, 9_000)).sum("amount").run()
        assert twin.aggregates == result.aggregates

        assert result.shipment.bytes_shipped > 0
        assert result.shipment.rpcs == len(plan.participants)
        assert result.shipment.network_time_s > 0
