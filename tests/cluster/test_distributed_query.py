"""Distributed scatter/gather execution: bit-identity to the twin and
the NumPy oracle, exact shipment accounting, codecs, migrations, SQL."""

import threading

import numpy as np
import pytest

from repro.adapt import Configuration
from repro.cluster import (
    ShardedTable,
    cluster_of,
    frame_bytes,
    plan_payload,
    result_payload,
    shipped_specs,
)
from repro.core.placement import Placement
from repro.live import LiveMigrator, MigrationBudget
from repro.obs.registry import registry
from repro.query import Query, col, in_range
from repro.sql import compile_sql

ROWS = 30_000
LO, HI = 1 << 18, 3 << 18


def build(n_nodes=2, mode="hash", seed=11, rows=ROWS, **kwargs):
    rng = np.random.default_rng(seed)
    data = {
        "k": rng.integers(0, 1 << 20, rows).astype(np.uint64),
        "v": rng.integers(0, 1 << 12, rows).astype(np.uint64),
        "g": rng.integers(0, 8, rows).astype(np.uint64),
    }
    table = ShardedTable.from_arrays(
        data, key="k", cluster=cluster_of(n_nodes), mode=mode, **kwargs
    )
    return table, data


def assert_identical(distributed, twin):
    assert distributed.kind == twin.kind
    if distributed.kind == "aggregate":
        assert distributed.aggregates == twin.aggregates
    elif distributed.kind == "groups":
        assert distributed.groups == twin.groups
    else:
        np.testing.assert_array_equal(distributed.rows, twin.rows)
        assert sorted(distributed.columns) == sorted(twin.columns)
        for name in distributed.columns:
            np.testing.assert_array_equal(distributed.columns[name],
                                          twin.columns[name])


class TestBitIdentity:
    @pytest.mark.parametrize("mode", ["hash", "range"])
    @pytest.mark.parametrize("n_nodes", [1, 2, 4])
    def test_filter_aggregate_matches_twin_and_oracle(self, n_nodes, mode):
        table, data = build(n_nodes=n_nodes, mode=mode)

        def q(t):
            return Query(t).where(in_range("k", LO, HI)) \
                .sum("v").count().min("v").max("v")

        distributed = q(table).run()
        twin = q(table.gather()).run()
        assert_identical(distributed, twin)

        mask = (data["k"] >= LO) & (data["k"] < HI)
        assert distributed.aggregates["sum(v)"] == int(
            data["v"][mask].astype(object).sum()
        )
        assert distributed.aggregates["count(*)"] == int(mask.sum())

    @pytest.mark.parametrize("mode", ["hash", "range"])
    def test_group_by_merges_across_shards(self, mode):
        table, data = build(mode=mode)

        def q(t):
            return Query(t).where(col("k") >= LO).group_by("g") \
                .sum("v").count()

        distributed = q(table).run()
        assert_identical(distributed, q(table.gather()).run())
        mask = data["k"] >= LO
        for key in np.unique(data["g"][mask]):
            gmask = mask & (data["g"] == key)
            assert distributed.groups[int(key)]["sum(v)"] == int(
                data["v"][gmask].astype(object).sum()
            )

    def test_row_select_rebases_onto_gather_order(self):
        table, _ = build(n_nodes=4)
        twin = table.gather()

        def q(t):
            return Query(t).where(in_range("k", LO, HI)).select("k", "v")

        distributed = q(table).run()
        assert_identical(distributed, q(twin).run())
        # The merged indices address the gather twin's rows directly.
        tk = twin.column("k").to_numpy()
        np.testing.assert_array_equal(tk[distributed.rows],
                                      distributed.columns["k"])

    def test_repeated_projection_is_one_column(self):
        table, _ = build(n_nodes=2)
        twin = table.gather()

        def q(t):
            return Query(t).where(in_range("k", LO, HI)).select("k", "k")

        distributed = q(table).run()
        assert_identical(distributed, q(twin).run())
        assert list(distributed.columns) == ["k"]
        assert distributed.columns["k"].size == distributed.rows.size

    def test_mean_ships_partials_not_averages(self):
        # Skewed shards: averaging per-shard means would be wrong, so
        # correctness here proves the (sum, count) rewrite.
        k = np.arange(1000, dtype=np.uint64)
        v = np.where(k < 500, 10, 1000).astype(np.uint64)
        table = ShardedTable.from_arrays(
            {"k": k, "v": v}, key="k", cluster=cluster_of(2), mode="range"
        )
        sizes = {s.n_rows for s in table.shards}
        assert sizes == {500}
        only_up_to_600 = Query(table).where(col("k") < 600).mean("v").run()
        exact = (500 * 10 + 100 * 1000) / 600
        assert only_up_to_600.aggregates["mean(v)"] == exact
        shard_means = [10.0, 1000.0]
        assert only_up_to_600.aggregates["mean(v)"] != pytest.approx(
            sum(shard_means) / 2
        )

    @pytest.mark.parametrize("codec", ["dict", "rle", "delta"])
    def test_encoded_columns_stay_identical(self, codec):
        table, _ = build(codecs={"v": codec, "g": codec})

        def q(t):
            return Query(t).where(in_range("k", LO, HI)).group_by("g") \
                .sum("v")

        assert_identical(q(table).run(), q(table.gather()).run())

    def test_fan_out_and_serial_paths_agree(self):
        table, _ = build(n_nodes=4)
        q = Query(table).where(in_range("k", LO, HI)).sum("v").count()
        fanned = q.plan().execute(fan_out=True)
        serial = q.plan().execute(fan_out=False)
        assert fanned.aggregates == serial.aggregates

    def test_auto_fan_out_runs_shards_on_the_calling_thread(self):
        # Auto is sequential (the simulated nodes share one GIL); one
        # thread per shard only on request.  Billing, merge and result
        # are the same on every branch; n_workers says which one ran.
        from repro.runtime import default_pool

        table, _ = build(n_nodes=4)
        q = Query(table).where(in_range("k", LO, HI)).group_by("g") \
            .sum("v").count()
        shard_threads = []
        real_pin = type(table.shards[0].table["k"]).pin_generation

        def recording_pin(array):
            shard_threads.append(threading.current_thread().name)
            return real_pin(array)

        results = {}
        pool = default_pool(2, mode="serial")
        reg = registry()
        for fan_out in (None, False, True):
            shard_threads.clear()
            before = reg.snapshot()
            for shard in table.shards:
                shard.table["k"].pin_generation = \
                    recording_pin.__get__(shard.table["k"])
            try:
                result = q.plan().execute(fan_out=fan_out, pool=pool)
            finally:
                for shard in table.shards:
                    del shard.table["k"].pin_generation
            wire = {key: n for key, n in reg.delta(before).items()
                    if key.startswith(("cluster.rpcs",
                                       "cluster.bytes_shipped"))}
            results[fan_out] = (result.groups, result.shipment.rpcs,
                                result.shipment.bytes_shipped, wire)
            here = threading.current_thread().name
            if fan_out:
                assert all(name.startswith("cluster-node")
                           for name in shard_threads)
                assert result.stats.n_workers == 4
            else:
                assert set(shard_threads) == {here}
                assert result.stats.n_workers == pool.n_workers
            assert sorted(result.plan.shard_stats) == [0, 1, 2, 3]
            assert all(s.wall_time_s > 0
                       for s in result.plan.shard_stats.values())
        assert results[None] == results[False] == results[True]
        assert results[None][1] == 4

    def test_empty_shards_do_not_participate(self):
        # Every key identical: range bounds collapse and all rows land
        # on the last shard; the others must be planned around.
        table = ShardedTable.from_arrays(
            {"k": np.full(100, 7, dtype=np.uint64),
             "v": np.arange(100, dtype=np.uint64)},
            key="k", cluster=cluster_of(4), mode="range",
        )
        dplan = Query(table).sum("v").plan()
        assert len(dplan.participants) < len(table.shards)
        result = dplan.execute()
        assert result.aggregates["sum(v)"] == sum(range(100))


class TestCoveredMorsels:
    """Shards cover morsels against their own zone maps; the merged
    result stays bit-identical to the gather twin and the oracle."""

    MORSEL = 1024

    @staticmethod
    def sorted_build(n_nodes, mode):
        # Sorted keys stay sorted inside every shard (hash and range
        # partitioning both keep relative order): monotone shard maps.
        table, data = build(n_nodes=n_nodes, mode=mode)
        order = np.argsort(data["k"], kind="stable")
        data = {name: values[order] for name, values in data.items()}
        return ShardedTable.from_arrays(
            data, key="k", cluster=cluster_of(n_nodes), mode=mode), data

    QUERIES = {
        "aggregates": lambda q: q.sum("v").count().min("v").max("v")
        .mean("v"),
        "count": lambda q: q.count(),
        "group_by": lambda q: q.group_by("g").sum("v").count(),
        "select": lambda q: q.select("v", "g"),
        "limit": lambda q: q.select("v").limit(777),
    }

    @pytest.mark.parametrize("shape", sorted(QUERIES))
    @pytest.mark.parametrize("mode", ["hash", "range"])
    @pytest.mark.parametrize("n_nodes", [1, 2, 4])
    def test_identical_to_twin_and_oracle(self, n_nodes, mode, shape):
        table, data = self.sorted_build(n_nodes, mode)
        twin_table = table.gather()

        def q(t):
            return self.QUERIES[shape](
                Query(t).where(in_range("k", LO, HI)))

        distributed = q(table).run(morsel=self.MORSEL)
        twin = q(twin_table).run(morsel=self.MORSEL)
        assert_identical(distributed, twin)
        assert distributed.stats.morsels_covered > 0
        assert twin.stats.morsels_covered > 0
        if shape != "limit":
            plans = distributed.plan.shard_plans.values()
            predicted = {}
            for plan in plans:
                for name, n in plan.predicted_decoded_chunks.items():
                    predicted[name] = predicted.get(name, 0) + n
            assert distributed.stats.decoded_chunks == predicted
            assert twin.stats.decoded_chunks == \
                twin.plan.predicted_decoded_chunks

        # Oracle over the gather order (``table.gather_arrays()``).
        gathered = table.gather_arrays()
        mask = (gathered["k"] >= LO) & (gathered["k"] < HI)
        v = gathered["v"][mask].astype(object)
        if shape == "aggregates":
            assert distributed.aggregates == {
                "sum(v)": int(v.sum()), "count(*)": int(mask.sum()),
                "min(v)": int(v.min()), "max(v)": int(v.max()),
                "mean(v)": int(v.sum()) / int(mask.sum())}
        elif shape == "count":
            assert distributed.scalar() == int(mask.sum())
            # The key is only the predicate's: covered morsels skip it.
            assert distributed.stats.decoded_chunks["k"] < \
                distributed.stats.chunks_candidate
        elif shape == "group_by":
            expected = {}
            for g, x in zip(gathered["g"][mask].tolist(), v.tolist()):
                s, c = expected.get(g, (0, 0))
                expected[g] = (s + x, c + 1)
            assert list(distributed.groups.items()) == [
                (g, {"sum(v)": s, "count(*)": c})
                for g, (s, c) in sorted(expected.items())]
        else:
            rows = np.flatnonzero(mask)
            if shape == "limit":
                rows = rows[:777]
            np.testing.assert_array_equal(distributed.rows, rows)
            np.testing.assert_array_equal(distributed["v"],
                                          gathered["v"][rows])


class TestShipmentAccounting:
    def test_bytes_shipped_are_exact_frame_sums(self):
        table, _ = build(n_nodes=2)
        q = Query(table).where(in_range("k", LO, HI)).sum("v").count()
        dplan = q.plan()
        reg = registry()
        before = reg.snapshot()
        result = dplan.execute()

        expected = sum(dplan.plan_bytes.values())
        for shard in dplan.participants:
            shard_q = Query(shard.table) \
                .where(in_range("k", LO, HI))
            shard_q.aggregates = list(shipped_specs(q)[0])
            expected += frame_bytes(
                result_payload(shard.shard_id, shard_q.run())
            )
        assert result.shipment.bytes_shipped == expected
        assert result.shipment.rpcs == len(dplan.participants)
        assert result.shipment.network_time_s > 0

        delta = reg.delta(before)
        assert delta.get("cluster.queries") == 1
        shipped = sum(v for key, v in delta.items()
                      if key.startswith("cluster.bytes_shipped{"))
        assert shipped == expected

    def test_plan_frames_are_small_and_data_independent(self):
        small, _ = build(rows=2_000)
        large, _ = build(rows=60_000)

        def q(t):
            return Query(t).where(in_range("k", LO, HI)).sum("v")

        small_bytes = q(small).plan().plan_bytes
        large_bytes = q(large).plan().plan_bytes
        # The shipped plan is the logical plan: only the row count in
        # the scan line differs, never the data volume.
        assert all(b < 512 for b in large_bytes.values())
        assert max(large_bytes.values()) - max(small_bytes.values()) < 8

    def test_plan_payload_prices_the_logical_plan(self):
        table, _ = build()
        q = Query(table).where(col("k") >= LO).sum("v")
        dplan = q.plan()
        shard = dplan.participants[0]
        payload = plan_payload(dplan.shard_queries[shard.shard_id],
                               shard.shard_id)
        assert payload["op"] == "execute"
        assert "filter" in payload["plan"]
        assert dplan.plan_bytes[shard.shard_id] == frame_bytes(payload)


class TestMigrationDuringQuery:
    def test_mid_query_shard_migration_stays_bit_identical(self):
        table, data = build(n_nodes=2, mode="range")
        shard = table.shards[0]
        column = shard.table.column("v")
        migrator = LiveMigrator(table.cluster.node(shard.node_id).allocator)
        migration = migrator.start(
            column,
            Configuration(Placement.interleaved(), column.bits),
            budget=MigrationBudget(max_chunks_per_step=2),
        )

        q = Query(table).where(in_range("k", LO, HI)).sum("v").count()
        expected = q.plan().execute().aggregates

        stop = threading.Event()

        def drive():
            while migration.step():
                if stop.is_set():  # pragma: no cover - safety valve
                    break

        thread = threading.Thread(target=drive, name="test-cluster-migrate")
        thread.start()
        try:
            for _ in range(20):
                assert q.plan().execute().aggregates == expected
        finally:
            stop.set()
            thread.join()
        assert migration.state == "completed"
        assert q.plan().execute().aggregates == expected


class TestSqlFanOut:
    def test_sql_lowers_to_the_identical_distributed_plan(self):
        table, data = build()
        sql = compile_sql(
            f"SELECT SUM(v), COUNT(*) FROM t WHERE k >= {LO} AND k < {HI}",
            table,
        )
        fluent = Query(table).where(
            (col("k") >= LO) & (col("k") < HI)
        ).sum("v").count()
        assert sql.describe() == fluent.describe()
        assert sql.run().aggregates == fluent.run().aggregates

    def test_sql_group_by_fans_out(self):
        table, data = build()
        result = compile_sql(
            "SELECT g, SUM(v) FROM t GROUP BY g", table
        ).run()
        for key in np.unique(data["g"]):
            gmask = data["g"] == key
            assert result.groups[int(key)]["sum(v)"] == int(
                data["v"][gmask].astype(object).sum()
            )


class TestExplain:
    def test_explain_shows_per_shard_candidates_and_frames(self):
        table, _ = build(mode="range")
        text = Query(table).where(in_range("k", LO, HI)).sum("v") \
            .plan().explain()
        assert "== distributed plan ==" in text
        assert "scatter: 2 of 2 shards participate" in text
        assert "candidate" in text and "plan frame" in text
        assert "gather: merge in shard order" in text
        assert "covered)" in text
