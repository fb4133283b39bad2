"""Tests for the query planner: pushdown, pruning soundness, explain."""

import numpy as np
import pytest

from repro.core import bitpack
from repro.core.table import SmartTable
from repro.core.map_api import SUPERCHUNK_ELEMENTS
from repro.query import (
    DEFAULT_MORSEL_ELEMENTS,
    Query,
    col,
    in_range,
    plan_query,
)

N = 20_000


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(5)
    return {
        # Sorted keys -> tight zones -> real pruning to assert against.
        "k": np.sort(rng.integers(0, 1 << 20, N)).astype(np.uint64),
        "v": rng.integers(0, 1 << 16, N).astype(np.uint64),
    }


@pytest.fixture
def table(data):
    t = SmartTable.from_arrays(dict(data))
    t.build_zone_map("k")
    return t


def brute_candidates(values, lo, hi):
    """Chunk indices a sound pruner may keep (superset check basis)."""
    n_chunks = bitpack.chunks_for(values.size)
    out = []
    for c in range(n_chunks):
        span = values[c * 64:(c + 1) * 64]
        if ((span >= lo) & (span < hi)).any():
            out.append(c)
    return out


class TestPushdown:
    def test_single_range_pushed(self, table, data):
        plan = Query(table).where(in_range("k", 1000, 50_000)).count().plan()
        # in_range is (k >= lo) & (k < hi): two sargable leaves.
        assert len(plan.pushed) == 2
        assert {p.column for p in plan.pushed} == {"k"}
        assert plan.chunks_candidate < plan.chunks_total
        # Soundness: every chunk with a matching row stays a candidate.
        must_keep = brute_candidates(data["k"], 1000, 50_000)
        assert plan.candidate_mask[must_keep].all()

    def test_and_intersects(self, table):
        lo, hi = 1000, 500_000
        wide = Query(table).where(col("k") >= lo).count().plan()
        narrow = Query(table).where(
            (col("k") >= lo) & (col("k") < hi)
        ).count().plan()
        assert narrow.chunks_candidate <= wide.chunks_candidate

    def test_or_unions(self, table, data):
        a, b = in_range("k", 0, 1000), in_range("k", 900_000, 1 << 20)
        pa = Query(table).where(a).count().plan()
        pb = Query(table).where(b).count().plan()
        por = Query(table).where(a | b).count().plan()
        union = pa.candidate_mask | pb.candidate_mask
        np.testing.assert_array_equal(por.candidate_mask, union)

    def test_or_with_unprunable_side_keeps_everything(self, table):
        # v has no zone map, so the OR cannot rule out any chunk.
        plan = Query(table).where(
            in_range("k", 0, 10) | (col("v") == 3)
        ).count().plan()
        assert plan.candidate_mask is None
        assert plan.chunks_candidate == plan.chunks_total

    def test_and_with_unprunable_side_still_prunes(self, table):
        plan = Query(table).where(
            in_range("k", 0, 1000) & (col("v") == 3)
        ).count().plan()
        assert plan.candidate_mask is not None
        assert plan.chunks_candidate < plan.chunks_total

    def test_not_is_conservative(self, table):
        plan = Query(table).where(~in_range("k", 0, 1000)).count().plan()
        assert plan.candidate_mask is None

    def test_nonexistent_range_prunes_all(self, table):
        plan = Query(table).where(
            in_range("k", 1 << 32, 1 << 33)
        ).count().plan()
        assert plan.chunks_candidate == 0
        assert plan.morsels_pruned == len(plan.morsels)
        assert plan.active_morsels is not None
        assert plan.active_morsels.size == 0


class TestPruneModes:
    def test_off_disables_pruning(self, table):
        plan = Query(table).where(in_range("k", 0, 10)).count().plan(
            prune="off"
        )
        assert plan.candidate_mask is None
        assert not plan.pushed

    def test_auto_without_map_cannot_prune(self, data):
        t = SmartTable.from_arrays(dict(data))  # no zone map built
        plan = Query(t).where(in_range("k", 0, 10)).count().plan()
        assert plan.candidate_mask is None

    def test_build_creates_and_caches_map(self, data):
        t = SmartTable.from_arrays(dict(data))
        plan = Query(t).where(in_range("k", 0, 10)).count().plan(
            prune="build"
        )
        assert plan.chunks_candidate < plan.chunks_total
        assert t.zone_map("k") is not None  # cached for later queries

    def test_invalid_mode_rejected(self, table):
        with pytest.raises(ValueError):
            Query(table).count().plan(prune="maybe")


class TestPlanShape:
    def test_morsels_are_superchunk_aligned(self, table):
        # A limit() plan keeps one-superchunk morsels (its early exit
        # skips whole morsels); every other plan defaults larger
        # (DEFAULT_MORSEL_ELEMENTS) to amortize per-run decode
        # overhead.  Both stay superchunk-aligned.
        plan = Query(table).select("v").limit(10).plan()
        assert plan.morsel_elements == SUPERCHUNK_ELEMENTS
        for start, stop in plan.morsels[:-1]:
            assert start % SUPERCHUNK_ELEMENTS == 0
            assert stop - start == SUPERCHUNK_ELEMENTS
        assert plan.morsels[-1][1] == N
        for q in (Query(table).count(), Query(table).select("v")):
            wide = q.plan()
            assert wide.morsel_elements == DEFAULT_MORSEL_ELEMENTS
            assert wide.morsel_elements % SUPERCHUNK_ELEMENTS == 0
            assert wide.morsels[-1][1] == N

    def test_morsel_knob_validated(self, table):
        with pytest.raises(ValueError):
            Query(table).count().plan(morsel=100)  # not a chunk multiple
        plan = Query(table).count().plan(morsel=256)
        assert plan.morsel_elements == 256

    def test_needed_columns_deduplicated_in_order(self, table):
        plan = Query(table).where(
            in_range("k", 0, 10) & (col("v") >= 1)
        ).sum("v").sum("k").plan()
        assert plan.needed_columns == ("k", "v")

    def test_count_star_picks_cheapest_column(self, data):
        t = SmartTable.from_arrays(dict(data))
        plan = Query(t).count().plan()
        cheapest = min(t.column_names, key=lambda n: t[n].bits)
        assert plan.needed_columns == (cheapest,)

    def test_selector_consulted_per_column(self, table):
        plan = Query(table).where(in_range("k", 0, 1000)).sum("v").plan()
        for name in plan.needed_columns:
            decision = plan.decisions[name]
            assert decision.engine == "blocked"
            assert decision.recommended is not None
            assert decision.matches_actual is not None

    def test_selector_opt_out(self, table):
        plan = Query(table).count().plan(consult_selector=False)
        for decision in plan.decisions.values():
            assert decision.recommended is None

    def test_empty_table_plans(self):
        t = SmartTable.from_arrays(
            {"k": np.empty(0, dtype=np.uint64)}
        )
        plan = Query(t).count().plan()
        assert plan.morsels == []
        assert plan.chunks_total == 0


class TestExplain:
    def test_reports_pruning_and_decode_counts(self, table):
        plan = Query(table).where(in_range("k", 1000, 50_000)).sum("v").plan()
        text = plan.explain()
        assert "pushed-down predicates" in text
        assert (
            f"chunks: {plan.chunks_total} total, "
            f"{plan.chunks_candidate} candidate, "
            f"{plan.chunks_pruned} pruned" in text
        )
        assert f"{plan.morsels_pruned} fully pruned" in text
        for name in plan.needed_columns:
            assert (
                f"will decode {plan.chunks_candidate} chunks = "
                f"{64 * plan.chunks_candidate} elements" in text
            )
            assert plan.decisions[name].describe() in text

    def test_unsargable_predicate_reported(self, table):
        text = Query(table).where(~in_range("k", 0, 10)).count().explain()
        assert "pushed-down predicates: none" in text

    def test_query_explain_matches_plan(self, table):
        q = Query(table).where(in_range("k", 0, 10)).count()
        assert q.explain() == q.plan().explain()


class TestPredictions:
    def test_predicted_replica_reads_shape(self, table):
        plan = Query(table).where(in_range("k", 1000, 50_000)).sum("v").plan()
        predicted = plan.predicted_replica_read_elements
        assert set(predicted) == set(plan.needed_columns)
        for elements in predicted.values():
            assert elements == 64 * plan.chunks_candidate

    def test_morsel_candidates_cover_mask(self, table):
        plan = Query(table).where(in_range("k", 1000, 50_000)).count().plan()
        seen = []
        for start, stop in plan.morsels:
            seen.extend(plan.morsel_candidates(start, stop).tolist())
        expected = np.nonzero(plan.candidate_mask)[0].tolist()
        assert seen == expected


class TestLogicalValidation:
    def test_group_by_requires_aggregate(self, table):
        with pytest.raises(ValueError):
            Query(table).group_by("k").plan()

    def test_aggregate_excludes_projection(self, table):
        with pytest.raises(ValueError):
            Query(table).sum("v").select("k").plan()

    def test_limit_is_rows_only(self, table):
        with pytest.raises(ValueError):
            Query(table).sum("v").limit(3).plan()

    def test_unknown_column_fails_fast(self, table):
        with pytest.raises(KeyError):
            Query(table).where(col("nope") >= 1)


class TestPlanOnce:
    """The second plan of a shape pays for nothing its literals do not
    decide — pinned by counting the work, not by timing it."""

    #: ``explain()`` of the plan below at the commit before the selector
    #: went lazy, up to the generated kernel (whose text did change).
    EAGER_EXPLAIN = """\
== logical plan ==
  scan 20,000 rows x 2 columns
  filter ((k >= 1000) & (k < 50000))
  aggregate sum(v)
== physical plan ==
  pushed-down predicates (zone-map pruning):
    k in [1000, inf): 313 candidate / 0 pruned chunks
    k in [0, 50000): 16 candidate / 297 pruned chunks
  chunks: 313 total, 16 candidate, 297 pruned
  morsels: 1 x 65536 elements (superchunk-aligned), 0 fully pruned
  columns read (fused single pass):
    k: 20b os_default (gen 0), engine=blocked, single-buffer reads; \
selector recommends replicated / 20b (differs)
      will decode 16 chunks = 1024 elements
    v: 16b os_default (gen 0), engine=blocked, single-buffer reads; \
selector recommends replicated / 16b (differs)
      will decode 16 chunks = 1024 elements
  estimated scan instructions: 7,872
  execution mode: compiled (fused kernel)
  generated kernel:
"""

    @pytest.fixture
    def counted(self, monkeypatch):
        """Counts of the three things a warm plan must not do."""
        import builtins

        import repro.query.codegen as codegen
        import repro.query.planner as planner
        from repro.core.smart_array import SmartArray

        calls = {"compile": 0, "to_numpy": 0, "select_configuration": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(codegen, "compile",
                            counting("compile", builtins.compile),
                            raising=False)
        monkeypatch.setattr(SmartArray, "to_numpy",
                            counting("to_numpy", SmartArray.to_numpy))
        monkeypatch.setattr(
            planner, "select_configuration",
            counting("select_configuration", planner.select_configuration))
        return calls

    def test_warm_shape_with_new_literals_does_no_shape_work(
            self, table, counted):
        def query(lo, hi):
            return Query(table).where(in_range("k", lo, hi)).sum("v")

        zm = table.zone_map("k")
        cold = query(7, 9).plan()
        assert counted["to_numpy"] == 2  # the map's mins and maxs, once
        assert counted["select_configuration"] == 0

        before = dict(counted)
        unpacks = (zm.mins.stats.chunk_unpacks, zm.maxs.stats.chunk_unpacks)
        plan = query(1000, 50_000).plan()
        assert counted == before
        assert (zm.mins.stats.chunk_unpacks,
                zm.maxs.stats.chunk_unpacks) == unpacks
        assert plan.kernel.fn is cold.kernel.fn
        assert plan.kernel.literals == (1000, 50_000)

        # The selector runs when its lines are asked for, once, and
        # says what the eager planner said.
        text = plan.explain()
        assert counted["select_configuration"] == len(plan.needed_columns)
        assert text.startswith(self.EAGER_EXPLAIN)
        assert text.endswith("\n  literals: lits[0] = 1000, lits[1] = 50000")
        assert plan.decisions["k"].describe() == (
            "k: 20b os_default (gen 0), engine=blocked, single-buffer "
            "reads; selector recommends replicated / 20b (differs)")
        assert plan.decisions["v"].selection is not None
        plan.explain()
        assert counted["select_configuration"] == len(plan.needed_columns)
        assert counted["compile"] == before["compile"]

    def test_nothing_is_decoded_before_the_first_lookup(self, data, counted):
        # Cached bounds fill lazily: registering a table and building
        # its zone map decode the column once, never the zone arrays.
        t = SmartTable.from_arrays(dict(data))
        zm = t.build_zone_map("k")
        assert counted["to_numpy"] == 0
        assert zm.mins.stats.chunk_unpacks == 0
        mins, maxs = zm.bounds()
        assert counted["to_numpy"] == 2
        assert zm.bounds()[0] is mins and not mins.flags.writeable
        assert np.array_equal(mins, data["k"][::64])

    def test_rebuilt_map_serves_fresh_bounds(self, data):
        t = SmartTable.from_arrays(dict(data))
        t.build_zone_map("k")
        low = int(data["k"].min())
        assert low > 0

        def below_all():
            return Query(t).where(col("k") < low).count()

        assert below_all().plan().chunks_candidate == 0
        t["k"][N - 1] = 0
        t.build_zone_map("k")
        plan = below_all().plan()
        assert plan.chunks_candidate == 1
        assert plan.execute().aggregates == {"count(*)": 1}

    def test_decisions_describe_the_plan_time_generation(self, table):
        # Facts are captured when the plan is made; asking for the
        # selector's verdict after a migration does not re-read them.
        from repro.adapt import Configuration
        from repro.core.allocate import default_allocator
        from repro.live import LiveMigrator

        plan = Query(table).where(in_range("k", 0, 1000)).sum("v").plan()
        migration = LiveMigrator(default_allocator()).migrate(
            table["v"], Configuration(table["v"].placement, 32))
        assert migration.state == "completed"
        decision = plan.decisions["v"]
        assert (decision.bits, decision.generation) == (16, 0)
        assert decision.recommended is not None
