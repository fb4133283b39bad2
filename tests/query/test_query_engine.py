"""End-to-end tests for the morsel-driven query executor.

Includes this PR's acceptance test: ``explain()``'s pruning and decode
claims are checked against the arrays' own ``chunk_unpacks`` /
``replica_read_elements`` accounting, not just against themselves.
"""

import numpy as np
import pytest

from repro.core.table import SmartTable
from repro.query import Query, col, execute, in_range, query_table
from repro.runtime.loops import default_pool

N = 30_000
LO, HI = 100_000, 160_000


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(9)
    return {
        "k": np.sort(rng.integers(0, 1 << 20, N)).astype(np.uint64),
        "v": rng.integers(0, 1 << 16, N).astype(np.uint64),
        "g": rng.integers(0, 7, N).astype(np.uint64),
    }


@pytest.fixture
def table(data):
    t = SmartTable.from_arrays(dict(data), replicated=True)
    t.build_zone_map("k")
    return t


@pytest.fixture(scope="module")
def pool():
    return default_pool(4)


def ref_mask(data, lo=LO, hi=HI):
    return (data["k"] >= lo) & (data["k"] < hi)


class TestAggregates:
    def test_filter_sum_count(self, table, data):
        mask = ref_mask(data)
        result = (
            Query(table).where(in_range("k", LO, HI)).sum("v").count().run()
        )
        assert result.kind == "aggregate"
        assert result["sum(v)"] == int(data["v"][mask].astype(object).sum())
        assert result["count(*)"] == int(mask.sum())

    def test_min_max_mean(self, table, data):
        mask = ref_mask(data)
        result = (
            Query(table).where(in_range("k", LO, HI))
            .min("v").max("v").mean("v").run()
        )
        sel = data["v"][mask]
        assert result["min(v)"] == int(sel.min())
        assert result["max(v)"] == int(sel.max())
        assert result["mean(v)"] == pytest.approx(
            float(sel.astype(object).sum()) / sel.size
        )

    def test_empty_selection_semantics(self, table):
        result = (
            Query(table).where(in_range("k", 1 << 40, 1 << 41))
            .sum("v").count().min("v").max("v").mean("v").run()
        )
        assert result["sum(v)"] == 0
        assert result["count(*)"] == 0
        assert result["min(v)"] is None
        assert result["max(v)"] is None
        assert result["mean(v)"] is None

    def test_no_predicate_full_scan(self, table, data):
        assert Query(table).sum("v").run().scalar() == \
            int(data["v"].astype(object).sum())

    def test_arith_and_or_predicates(self, table, data):
        expr = ((col("v") * 2) >= 40_000) | \
            (in_range("k", LO, HI) & (col("g") == 3))
        expected = ((data["v"] * np.uint64(2)) >= 40_000) | (
            ref_mask(data) & (data["g"] == 3)
        )
        result = Query(table).where(expr).count().run()
        assert result.scalar() == int(expected.sum())

    def test_scalar_needs_single_aggregate(self, table):
        result = Query(table).sum("v").count().run()
        with pytest.raises(ValueError):
            result.scalar()


class TestGroupBy:
    def test_group_by_sum_matches_reference(self, table, data):
        mask = ref_mask(data)
        result = (
            Query(table).where(in_range("k", LO, HI))
            .group_by("g").sum("v").count().run()
        )
        assert result.kind == "groups"
        expected = {}
        for key in np.unique(data["g"][mask]):
            sel = data["v"][mask & (data["g"] == key)]
            expected[int(key)] = (
                int(sel.astype(object).sum()), int(sel.size)
            )
        got = {
            k: (v["sum(v)"], v["count(*)"]) for k, v in result.groups.items()
        }
        assert got == expected
        assert list(result.groups) == sorted(result.groups)

    def test_group_by_agrees_with_table_group_by_sum(self, table, data):
        result = Query(table).group_by("g").sum("v").run()
        expected = table.group_by_sum("g", "v")
        assert {k: v["sum(v)"] for k, v in result.groups.items()} == expected


class TestRowQueries:
    def test_select_returns_indices_and_values(self, table, data):
        mask = ref_mask(data)
        result = (
            Query(table).where(in_range("k", LO, HI)).select("v").run()
        )
        assert result.kind == "rows"
        np.testing.assert_array_equal(
            result.rows, np.nonzero(mask)[0].astype(np.int64)
        )
        np.testing.assert_array_equal(result["v"], data["v"][mask])

    def test_limit_truncates_in_row_order(self, table, data):
        mask = ref_mask(data)
        result = (
            Query(table).where(in_range("k", LO, HI))
            .select("v").limit(7).run()
        )
        assert result.n_rows == 7
        np.testing.assert_array_equal(
            result.rows, np.nonzero(mask)[0][:7].astype(np.int64)
        )

    def test_bare_filter_no_projection(self, table, data):
        result = Query(table).where(in_range("k", LO, HI)).select().run()
        np.testing.assert_array_equal(
            result.rows, np.nonzero(ref_mask(data))[0].astype(np.int64)
        )


class TestLimitEarlyExit:
    """Regression: limit() used to decode and filter every candidate
    morsel before truncating; now morsel claiming stops once the
    completed morsel prefix covers the row budget."""

    def _limited(self, table, n, pool=None):
        return (
            Query(table).where(col("k") >= LO).select("v").limit(n)
            .run(pool=pool)
        )

    def test_skips_morsels_and_saves_decodes(self, table, data):
        full_mask = data["k"] >= LO
        before = table["k"].stats.chunk_unpacks
        result = self._limited(table, 5)
        decoded = table["k"].stats.chunk_unpacks - before
        # The serial path claims morsels in order, so it decodes a
        # strict prefix of the candidate chunks and skips the rest.
        assert 0 < decoded < result.plan.chunks_candidate
        assert result.stats.morsels_skipped > 0
        assert result.stats.decoded_chunks["k"] == decoded
        np.testing.assert_array_equal(
            result.rows, np.nonzero(full_mask)[0][:5].astype(np.int64)
        )
        np.testing.assert_array_equal(
            result["v"], data["v"][full_mask][:5]
        )

    def test_limit_zero_decodes_nothing(self, table):
        before = table["k"].stats.chunk_unpacks
        result = self._limited(table, 0)
        assert result.n_rows == 0
        assert table["k"].stats.chunk_unpacks - before == 0
        assert result.stats.morsels_executed == 0

    def test_threaded_prefix_is_bit_identical(self, table, data, pool):
        serial = self._limited(table, 9)
        threaded = self._limited(table, 9, pool=pool)
        np.testing.assert_array_equal(serial.rows, threaded.rows)
        np.testing.assert_array_equal(serial["v"], threaded["v"])
        full_mask = data["k"] >= LO
        np.testing.assert_array_equal(
            threaded.rows, np.nonzero(full_mask)[0][:9].astype(np.int64)
        )

    def test_unsatisfiable_limit_scans_everything(self, table, data):
        # Budget larger than the match count: no skipping possible.
        full_mask = data["k"] >= LO
        want = int(full_mask.sum()) + 10
        result = self._limited(table, want)
        assert result.n_rows == int(full_mask.sum())
        assert result.stats.morsels_skipped == 0
        # Every predicted chunk is decoded: all candidates for the
        # projected column, fewer for ``k`` where morsels are covered.
        assert result.stats.decoded_chunks == \
            result.plan.predicted_decoded_chunks
        assert result.stats.decoded_chunks["v"] == \
            result.plan.chunks_candidate


class TestParallelDeterminism:
    def test_aggregate_identical_serial_vs_pool(self, table, pool):
        def build():
            return (
                Query(table).where(in_range("k", LO, HI))
                .sum("v").min("v").mean("v").count()
            )

        serial = build().run()
        parallel = build().run(pool=pool)
        assert parallel.aggregates == serial.aggregates
        assert parallel.stats.rows_scanned == serial.stats.rows_scanned
        assert parallel.stats.decoded_chunks == serial.stats.decoded_chunks

    def test_groups_and_rows_identical(self, table, pool):
        gs = Query(table).group_by("g").sum("v").run()
        gp = Query(table).group_by("g").sum("v").run(pool=pool)
        assert gp.groups == gs.groups

        rs = Query(table).where(in_range("k", LO, HI)).select("v").run()
        rp = Query(table).where(in_range("k", LO, HI)).select("v") \
            .run(pool=pool)
        np.testing.assert_array_equal(rp.rows, rs.rows)
        np.testing.assert_array_equal(rp["v"], rs["v"])


class TestExplainAccuracy:
    """Acceptance: explain() vs the arrays' own accounting."""

    def test_predicted_decodes_match_observed_counters(self, data):
        table = SmartTable.from_arrays(dict(data), replicated=True)
        table.invalidate_zone_maps("v")  # no synopsis answers sum(v)
        q = Query(table).where(in_range("k", LO, HI)).sum("v")
        plan = q.plan()
        assert 0 < plan.chunks_candidate < plan.chunks_total

        for name in plan.needed_columns:
            table[name].stats.reset()
            table[name].reset_replica_reads()
        result = execute(plan)

        chunks = plan.predicted_decoded_chunks
        predicted = plan.predicted_replica_read_elements
        # The aggregate column decodes every candidate chunk; the
        # predicate-only ``k`` skips those of covered morsels.
        assert chunks["v"] == plan.chunks_candidate
        assert chunks["k"] == plan.chunks_candidate - plan.chunks_covered
        for name in plan.needed_columns:
            array = table[name]
            # The executor decoded exactly the predicted chunks, once.
            assert array.stats.chunk_unpacks == chunks[name]
            assert sum(array.replica_read_elements) == predicted[name]
            # And the query's own stats agree with both.
            assert result.stats.decoded_chunks[name] == chunks[name]
            assert result.stats.decoded_elements[name] == predicted[name]

        # The explain text carries the same numbers.
        text = plan.explain()
        assert (
            f"will decode {chunks['k']} chunks = "
            f"{predicted['k']} elements" in text
        )
        assert f"{plan.chunks_pruned} pruned" in text

    def test_parallel_run_decodes_same_chunks(self, data, pool):
        table = SmartTable.from_arrays(dict(data), replicated=True)
        table.build_zone_map("k")
        q = Query(table).where(in_range("k", LO, HI)).sum("v")
        plan = q.plan()
        for name in plan.needed_columns:
            table[name].stats.reset()
            table[name].reset_replica_reads()
        execute(plan, pool=pool)
        for name in plan.needed_columns:
            assert table[name].stats.chunk_unpacks == \
                plan.predicted_decoded_chunks[name]
            assert sum(table[name].replica_read_elements) == \
                plan.predicted_replica_read_elements[name]

    def test_stats_morsel_counts_match_plan(self, table):
        result = Query(table).where(in_range("k", LO, HI)).sum("v").run()
        stats, plan = result.stats, result.plan
        assert stats.morsels_total == len(plan.morsels)
        assert stats.morsels_pruned == plan.morsels_pruned
        assert stats.morsels_executed == \
            stats.morsels_total - stats.morsels_pruned
        assert stats.chunks_candidate == plan.chunks_candidate
        assert stats.rows_scanned <= 64 * plan.chunks_candidate

    def test_stats_feed_the_selector(self, table):
        result = Query(table).where(in_range("k", LO, HI)).sum("v").run()
        measurement = result.stats.measurement(label="q")
        assert measurement.counters.instructions > 0
        assert measurement.read_only
        # The measurement slots straight into select_configuration.
        from repro.adapt import (
            ArrayCharacteristics,
            MachineCapabilities,
            select_configuration,
        )
        from repro.core.allocate import default_machine

        selection = select_configuration(
            MachineCapabilities(default_machine()),
            ArrayCharacteristics(
                length=table.n_rows,
                element_bits=table["v"].bits,
                scan_engine="blocked",
            ),
            measurement,
        )
        assert selection.configuration.describe()


class TestEdges:
    def test_empty_table(self):
        t = SmartTable.from_arrays({"k": np.empty(0, dtype=np.uint64)})
        result = Query(t).where(col("k") >= 0).sum("k").count().run()
        assert result["sum(k)"] == 0
        assert result["count(*)"] == 0
        rows = Query(t).where(col("k") >= 0).select("k").run()
        assert rows.n_rows == 0

    def test_uint64_boundary_values_aggregate_exactly(self):
        values = np.array(
            [(1 << 64) - 1, (1 << 64) - 2, 5, 0], dtype=np.uint64
        )
        t = SmartTable.from_arrays({"v": values})
        result = Query(t).where(col("v") >= 1).sum("v").run()
        assert result.scalar() == ((1 << 64) - 1) + ((1 << 64) - 2) + 5

    def test_query_table_helper_and_table_entry_point(self, table, data):
        assert query_table(table).count().run().scalar() == N
        assert table.query().count().run().scalar() == N

    def test_morsel_knob_changes_shape_not_result(self, table, data):
        mask = ref_mask(data)
        expected = int(data["v"][mask].astype(object).sum())
        small = Query(table).where(in_range("k", LO, HI)).sum("v") \
            .run(morsel=256)
        assert small.scalar() == expected
        assert small.stats.morsels_total == -(-N // 256)

    def test_where_accumulates_with_and(self, table, data):
        q = Query(table).where(col("k") >= LO).where(col("k") < HI).count()
        assert q.run().scalar() == int(ref_mask(data).sum())
