"""Chunk synopses in the query engine: covered chunks of SUM / COUNT /
MIN / MAX / MEAN are answered from per-chunk metadata, the rest decoded.

Every answer is checked against Python-int NumPy sums and against the
same query with the synopses taken away (its map dropped); every plan's
decode accounting against the arrays' own counters.
"""

import threading

import numpy as np
import pytest

from repro.cluster import ShardedTable, cluster_of
from repro.core.table import SmartTable
from repro.core.zonemap import HULL_CALL_CHUNKS
from repro.obs.registry import registry
from repro.query import Query, QueryCancelled, col, in_range
from repro.sql import compile_sql

from ._tables import unindexed_table

N = 70_000
MORSEL = 4096 * 4  # 256 chunks


def exact(values):
    return int(values.astype(object).sum()) if values.size else 0


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(33)
    return {
        "ts": np.sort(rng.integers(0, 1 << 32, N)).astype(np.uint64),
        "amount": rng.integers(0, 1 << 20, N).astype(np.uint64),
    }


@pytest.fixture
def table(data):
    return SmartTable.from_arrays(dict(data))


def aggregates(q):
    return q.sum("amount").count().min("amount").max("amount") \
        .mean("amount")


def expected(data, mask):
    amount = data["amount"][mask]
    total = exact(amount)
    return {"sum(amount)": total, "count(*)": int(mask.sum()),
            "min(amount)": int(amount.min()) if amount.size else None,
            "max(amount)": int(amount.max()) if amount.size else None,
            "mean(amount)": total / amount.size if amount.size else None}


def run_counted(table, q, **knobs):
    """Run ``q``, asserting each column's decode counters moved by
    exactly the plan's prediction."""
    for name in table.column_names:
        table[name].stats.reset()
    result = q.run(**knobs)
    plan = result.plan
    assert result.stats.decoded_chunks == plan.predicted_decoded_chunks
    for name, chunks in plan.predicted_decoded_chunks.items():
        assert table[name].stats.chunk_unpacks == chunks
    return result


class TestPredicateFree:
    @pytest.mark.parametrize("bits", [20, 58, 59])
    def test_sums_at_the_cutoff(self, bits):
        rng = np.random.default_rng(bits)
        top = (1 << bits) - 1
        values = rng.integers(0, top, N, dtype=np.uint64, endpoint=True)
        values[:64 * 100] = top  # full chunks of the largest value
        t = SmartTable.from_arrays({"v": values})
        assert t["v"].bits == bits
        n_chunks = -(-N // 64)
        result = run_counted(t, Query(t).sum("v").mean("v").count())
        total = exact(values)
        assert result.aggregates == {"sum(v)": total, "mean(v)": total / N,
                                     "count(*)": N}
        # Sums are kept up to 58 bits: a 59-bit column decodes.
        decodes = n_chunks if bits > 58 else 0
        assert result.stats.decoded_chunks == {"v": decodes}
        assert result.stats.synopsis_chunks == {"v": n_chunks - decodes}
        assert t.sum("v") == total
        assert t.mean("v") == total / N

    def test_sql_sum_reads_only_the_synopsis(self, table, data):
        result = compile_sql("SELECT sum(amount), min(amount) FROM t",
                             {"t": table}).run()
        assert result.aggregates == {
            "sum(amount)": exact(data["amount"]),
            "min(amount)": int(data["amount"].min())}
        assert result.stats.decoded_chunks == {"amount": 0}
        assert result.plan.work_morsels.size == 0

    def test_a_written_column_still_answers_from_synopses(self, data):
        t = SmartTable.from_arrays(dict(data))
        values = data["amount"].copy()
        for write in range(3):
            t["amount"].scatter_many(np.array([3, 64 * write + 5]),
                                     np.array([7, write], dtype=np.uint64))
            values[[3, 64 * write + 5]] = [7, write]
            t["amount"][N - 1] = 1 << 19
            values[N - 1] = 1 << 19
            result = Query(t).sum("amount").min("amount").run()
            assert result.aggregates == {"sum(amount)": exact(values),
                                         "min(amount)": int(values.min())}
            assert result.stats.decoded_chunks == {"amount": 0}

    def test_a_projection_shares_the_maps(self, table, data):
        # select() shares the columns, so it prunes on ts and answers
        # covered chunks of amount from their synopses.
        projected = table.select(["ts", "amount"])
        assert projected["amount"].zone_map is table["amount"].zone_map
        lo, hi = 1 << 30, 3 << 30
        mask = (data["ts"] >= lo) & (data["ts"] < hi)
        result = run_counted(projected, aggregates(
            Query(projected).where(in_range("ts", lo, hi))), morsel=MORSEL)
        assert result.aggregates == expected(data, mask)
        assert result.plan.chunks_candidate < result.plan.chunks_total
        assert result.stats.synopsis_chunks["amount"] > 0

    def test_a_value_past_58_bits_drops_the_sums(self, data):
        from repro.adapt import Configuration
        from repro.core.allocate import default_allocator
        from repro.live import LiveMigrator

        t = SmartTable.from_arrays(dict(data))
        amount = t["amount"]
        LiveMigrator(default_allocator()).migrate(
            amount, Configuration(amount.placement, 60))
        assert amount.zone_map.sums is not None  # values still 20-bit
        values = data["amount"].copy()
        amount[5] = values[5] = 1 << 58
        assert amount.zone_map.sums is None
        assert amount.zone_map.bits == 59
        result = run_counted(t, Query(t).sum("amount").max("amount"))
        assert result.aggregates == {"sum(amount)": exact(values),
                                     "max(amount)": 1 << 58}
        assert result.stats.decoded_chunks == {"amount": -(-N // 64)}
        # Once the wide value is overwritten the sums are whole again:
        # every chunk's sum was kept modulo 2**64 all along.
        amount[5] = values[5] = 1
        assert amount.zone_map.sums is not None
        result = run_counted(t, Query(t).sum("amount"))
        assert result.scalar() == exact(values)
        assert result.stats.decoded_chunks == {"amount": 0}


class TestCoveredChunks:
    @pytest.mark.parametrize("lo,hi", [(1 << 30, 3 << 30), (0, 1 << 33),
                                       (12_345, 99_999_999), (5, 5)])
    def test_range_on_a_sorted_column(self, table, data, lo, hi):
        mask = (data["ts"] >= lo) & (data["ts"] < hi)
        result = run_counted(
            table, aggregates(Query(table).where(in_range("ts", lo, hi))),
            morsel=MORSEL)
        assert result.aggregates == expected(data, mask)
        plan = result.plan
        # A run binding: at most two edge runs per morsel decode.
        for index in plan.work_morsels.tolist():
            assert len(plan.morsel_runs(index)) <= 2
        assert plan.synopsis_chunks + plan.chunks_kernel >= \
            plan.chunks_candidate
        assert result.stats.synopsis_chunks["amount"] == plan.synopsis_chunks

    def test_answers_equal_the_decode_path(self, data):
        with_maps = SmartTable.from_arrays(dict(data))
        without = unindexed_table(data)
        without.build_zone_map("ts")
        for lo, hi in ((1 << 28, 1 << 31), (1 << 20, 1 << 32)):
            q = lambda t: aggregates(Query(t).where(  # noqa: E731
                in_range("ts", lo, hi)))
            a, b = q(with_maps).run(), q(without).run()
            assert a.aggregates == b.aggregates
            assert a.stats.synopsis_chunks["amount"] > 0
            assert b.stats.synopsis_chunks["amount"] == 0
        # The mask path: a range on the unsorted column itself.
        for k in (5_000, 600_000, 1 << 20):
            q = lambda t: aggregates(  # noqa: E731
                Query(t).where(col("amount") < k))
            got = run_counted(with_maps, q(with_maps), morsel=MORSEL)
            assert got.aggregates == expected(data, data["amount"] < k)
            assert got.aggregates == q(without).run().aggregates

    def test_two_close_edges_in_one_morsel_decode_their_hull(self, table,
                                                           data):
        # A range three chunks wide: the covered chunk between its edge
        # chunks is cheaper to decode than a second call.
        lo, hi = int(data["ts"][64 * 10 + 5]), int(data["ts"][64 * 12 + 5])
        result = run_counted(table, Query(table).where(
            in_range("ts", lo, hi)).sum("amount"), morsel=MORSEL)
        mask = (data["ts"] >= lo) & (data["ts"] < hi)
        assert result.scalar() == exact(data["amount"][mask])
        assert result.plan.synopsis_chunks == 0
        assert result.plan.chunks_kernel == result.plan.chunks_candidate

    def test_group_by_and_rows_keep_the_covered_kernel(self, table, data):
        q = Query(table).where(in_range("ts", 1 << 30, 3 << 30))
        for shaped in (q.group_by("ts").count(), Query(table).where(
                in_range("ts", 1 << 30, 3 << 30)).select("amount")):
            plan = shaped.plan(morsel=MORSEL)
            assert plan.synopsis_maps is None
            assert plan.synopsis_chunks == 0
            assert plan.covered_kernel is not None


class TestObservability:
    def test_explain_stats_and_counter(self, table):
        reg = registry()
        before = reg.value("query.synopsis_chunks", column="amount")
        result = Query(table).where(in_range("ts", 1 << 30, 3 << 30)) \
            .sum("amount").run(morsel=MORSEL)
        plan = result.plan
        assert plan.synopsis_chunks > 0
        assert (f"synopsis chunks: {plan.synopsis_chunks} of "
                f"{plan.chunks_candidate} candidates") in plan.explain()
        assert reg.value("query.synopsis_chunks", column="amount") - \
            before == plan.synopsis_chunks
        assert "chunks from synopses" in result.stats.describe()


class TestFragmentation:
    def test_scattered_candidates_make_bounded_decode_calls(self, data):
        t = SmartTable.from_arrays(dict(data))
        calls = []
        decode = t["amount"].decode_chunks

        def counted(first, count, **kwargs):
            calls.append(first // (MORSEL // 64))
            return decode(first, count, **kwargs)

        t["amount"].decode_chunks = counted
        try:
            for k in (1_000, 10_000, 50_000):
                del calls[:]
                result = Query(t).where(col("amount") < k).count() \
                    .run(morsel=MORSEL)
                assert result.scalar() == int((data["amount"] < k).sum())
                per_morsel = np.bincount(calls) if calls else np.zeros(1)
                assert per_morsel.max() <= 1 + (MORSEL // 64) \
                    // HULL_CALL_CHUNKS
                assert result.stats.decoded_chunks == \
                    result.plan.predicted_decoded_chunks
                assert len(result.plan.hulls) > 0
        finally:
            del t["amount"].decode_chunks


class TestSharded:
    def test_every_shard_column_is_mapped_and_answers(self, data):
        t = ShardedTable.from_arrays(dict(data), key="ts",
                                     cluster=cluster_of(4), mode="range")
        for shard in t.shards:
            for name in shard.table.column_names:
                assert shard.table[name].zone_map is not None
        lo, hi = 1 << 29, 3 << 30
        result = Query(t).where(in_range("ts", lo, hi)).sum("amount") \
            .mean("amount").run()
        mask = (data["ts"] >= lo) & (data["ts"] < hi)
        total = exact(data["amount"][mask])
        assert result.aggregates == {"sum(amount)": total,
                                     "mean(amount)": total / mask.sum()}
        assert result.stats.synopsis_chunks["amount"] > 0


def test_pre_set_cancel_stops_a_synopsis_only_plan(table):
    cancel = threading.Event()
    cancel.set()
    with pytest.raises(QueryCancelled):
        Query(table).sum("amount").run(cancel=cancel)
