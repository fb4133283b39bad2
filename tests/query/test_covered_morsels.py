"""Covered morsels: where the zone maps prove the whole predicate, a
morsel runs the query's kernel without it.

Every result is checked against NumPy, every covered morsel against the
predicate's mask (all of its candidate rows must match), and every
column's decode accounting against the plan's per-column prediction and
the arrays' own counters.  Expected covered morsels come from a
test-local zone oracle: per-chunk min/max from the raw values, leaves
combined under AND (intersect) and OR (union), NOT covering nothing.
"""

import numpy as np
import pytest

from repro.core.table import SmartTable
from repro.core.zonemap import ZoneMap
from repro.query import Query, col, in_range
from repro.query.expr import Not

from ._tables import unindexed_table

N = 20_000  # 312.5 chunks: a trailing partial chunk and morsel
MORSEL = 1024  # 16 chunks
PER_MORSEL = MORSEL // 64
N_MORSELS = -(-N // MORSEL)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(29)
    return {
        # Sorted with runs of equal values: monotone zone map, and an
        # ``==`` leaf can cover whole chunks.
        "ts": np.repeat(np.arange(N // 256 + 1, dtype=np.uint64),
                        256)[:N],
        # Sorted and distinct: range bounds cut chunks, so a covered run
        # can end inside a morsel whose last candidate is not covered.
        "seq": np.arange(N, dtype=np.uint64),
        "v": rng.integers(0, 1 << 16, N).astype(np.uint64),
        "g": rng.integers(0, 8, N).astype(np.uint64),
    }


def make_table(data):
    t = SmartTable.from_arrays(dict(data))
    for name in ("ts", "seq", "v"):
        t.build_zone_map(name)
    return t


@pytest.fixture
def table(data):
    return make_table(data)


# -- a test-local predicate tree and its zone oracle -----------------------

def ge(name, lo):
    return ("range", name, lo, 1 << 64)


def lt(name, hi):
    return ("range", name, 0, hi)


def eq(name, value):
    return ("range", name, value, value + 1)


def expr_of(tree):
    kind = tree[0]
    if kind == "range":
        _, name, lo, hi = tree
        if hi >= 1 << 64:
            return col(name) >= lo
        if lo == 0:
            return col(name) < hi
        if hi == lo + 1:
            return col(name) == lo
        return in_range(name, lo, hi)
    if kind == "not":
        return Not(expr_of(tree[1]))
    left, right = expr_of(tree[1]), expr_of(tree[2])
    return left & right if kind == "and" else left | right


def mask_of(tree, data):
    kind = tree[0]
    if kind == "range":
        _, name, lo, hi = tree
        values = data[name].astype(object)
        return np.array([lo <= x < hi for x in values], dtype=bool)
    if kind == "not":
        return ~mask_of(tree[1], data)
    left, right = mask_of(tree[1], data), mask_of(tree[2], data)
    return left & right if kind == "and" else left | right


def chunk_bounds(values):
    # Pad the tail chunk with a real value so padding never widens it.
    pad = -values.size % 64
    grid = np.concatenate([values, np.full(pad, values[-1])]).reshape(-1, 64)
    return grid.min(axis=1), grid.max(axis=1)


def zones_of(tree, data):
    """``(candidates, covered)`` per chunk; candidates ``None`` = all."""
    kind = tree[0]
    if kind == "range":
        _, name, lo, hi = tree
        mins, maxs = (b.astype(object) for b in chunk_bounds(data[name]))
        candidates = np.array([mx >= lo and mn < hi
                               for mn, mx in zip(mins, maxs)], dtype=bool)
        covered = np.array([mn >= lo and mx < hi
                            for mn, mx in zip(mins, maxs)], dtype=bool)
        return candidates, covered
    n_chunks = -(-N // 64)
    if kind == "not":
        return None, np.zeros(n_chunks, dtype=bool)
    (lc, lv), (rc, rv) = zones_of(tree[1], data), zones_of(tree[2], data)
    if kind == "and":
        if lc is None or rc is None:
            candidates = rc if lc is None else lc
        else:
            candidates = lc & rc
        return candidates, lv & rv
    candidates = None if lc is None or rc is None else lc | rc
    return candidates, lv | rv


def expected_covered(tree, data):
    candidates, covered = zones_of(tree, data)
    if candidates is None:
        return []
    out = []
    for m in range(N_MORSELS):
        window = slice(m * PER_MORSEL, (m + 1) * PER_MORSEL)
        mine = candidates[window]
        if mine.any() and covered[window][mine].all():
            out.append(m)
    return out


TREES = {
    "ge": ge("ts", 37),
    "lt": lt("ts", 61),
    "eq": eq("ts", 16),
    "range": ("and", ge("ts", 12), lt("ts", 70)),
    "and-v": ("and", ("and", ge("ts", 12), lt("ts", 70)),
              ("and", ge("v", 0), lt("v", 1 << 16))),
    "or": ("or", lt("ts", 10), ge("ts", 70)),
    "or-gap": ("or", eq("ts", 20), eq("ts", 60)),
    "seq-range": ("and", ge("seq", 1000), lt("seq", 15000)),
    "seq-ge": ge("seq", 5000),
    "seq-lt": lt("seq", 15000),
    "seq-or": ("or", lt("seq", 3000), ge("seq", 9000)),
    "seq-and-ts": ("and", ("and", ge("seq", 1000), lt("seq", 15000)),
                   lt("ts", 50)),
    "not": ("not", lt("ts", 10)),
    "and-not": ("and", ge("ts", 30), ("not", lt("ts", 10))),
}


def check_covered_rows(plan, mask):
    """Every candidate row of every covered morsel matches."""
    for m in plan.covered_morsels.tolist():
        start, stop = plan.morsels[m]
        for chunk in plan.morsel_candidates(start, stop).tolist():
            assert mask[chunk * 64:min(N, chunk * 64 + 64)].all()


class TestCoveredMorsels:
    @pytest.mark.parametrize("name", sorted(TREES))
    def test_leaves_and_trees_against_the_zone_oracle(self, table, data,
                                                      name):
        tree = TREES[name]
        mask = mask_of(tree, data)
        result = Query(table).where(expr_of(tree)).sum("v").count() \
            .run(morsel=MORSEL)
        assert result.aggregates["sum(v)"] == int(
            data["v"][mask].astype(object).sum())
        assert result.aggregates["count(*)"] == int(mask.sum())
        plan = result.plan
        assert plan.covered_morsels.tolist() == expected_covered(tree, data)
        check_covered_rows(plan, mask)
        assert result.stats.morsels_covered == plan.covered_morsels.size
        assert result.stats.decoded_chunks == plan.predicted_decoded_chunks

    @pytest.mark.parametrize("name", ["not", "and-not"])
    def test_not_covers_nothing_under_it(self, table, name):
        # Under AND, an unprovable NOT leaves nothing covered even where
        # the sargable conjunct covers every chunk.
        plan = Query(table).where(expr_of(TREES[name])).count() \
            .plan(morsel=MORSEL)
        assert plan.covered_morsels.size == 0
        assert plan.covered_kernel is None

    def test_unsargable_leaf_covers_nothing_under_and(self, table, data):
        # ``!=`` binds to no zone-map range: the AND proves nothing even
        # though its range conjunct covers whole morsels.
        result = Query(table).where(in_range("ts", 12, 70)
                                    & (col("v") != 5)).count() \
            .run(morsel=MORSEL)
        mask = (data["ts"] >= 12) & (data["ts"] < 70) & (data["v"] != 5)
        assert result.scalar() == int(mask.sum())
        assert result.plan.covered_morsels.size == 0

    @pytest.mark.parametrize("name", sorted(TREES))
    def test_run_and_compare_paths_agree(self, data, name, monkeypatch):
        tree = TREES[name]
        query = lambda t: Query(t).where(expr_of(tree)).sum("v")  # noqa: E731
        table = make_table(data)
        assert table["ts"].zone_map.monotone
        by_run = query(table).run(morsel=MORSEL)
        monkeypatch.setattr(ZoneMap, "candidate_run",
                            lambda self, lo, hi: None)
        monkeypatch.setattr(ZoneMap, "covered_run",
                            lambda self, lo, hi: None)
        by_compare = query(make_table(data)).run(morsel=MORSEL)
        assert by_run.aggregates == by_compare.aggregates
        for field in ("covered_morsels", "active_morsels"):
            a = getattr(by_run.plan, field)
            b = getattr(by_compare.plan, field)
            assert (a is None) == (b is None)
            if a is not None:
                assert a.tolist() == b.tolist()
        assert by_run.plan.chunks_covered == by_compare.plan.chunks_covered
        assert by_run.stats.decoded_chunks == by_compare.stats.decoded_chunks

    @pytest.mark.parametrize("path", ["run", "compare"])
    def test_boundary_chunk_max_equal_to_hi_is_not_covered(self,
                                                           monkeypatch,
                                                           path):
        # One chunk per morsel over 0, 1, 2, ...: chunk 5 holds
        # 320..383.  ``< 384`` covers it (max = hi - 1); ``< 383`` makes
        # its max equal to hi, so it is a candidate but not covered.
        ts = np.arange(N, dtype=np.uint64)
        t = SmartTable.from_arrays({"ts": ts})
        t.build_zone_map("ts")
        if path == "compare":
            monkeypatch.setattr(ZoneMap, "covered_run",
                                lambda self, lo, hi: None)
            monkeypatch.setattr(ZoneMap, "candidate_run",
                                lambda self, lo, hi: None)
        for hi, covered in ((384, True), (383, False)):
            result = Query(t).where(col("ts") < hi).count().run(morsel=64)
            assert result.scalar() == hi
            assert (5 in result.plan.covered_morsels.tolist()) is covered
            assert result.plan.covered_morsels.tolist() == list(
                range(6 if covered else 5))
            assert result.stats.decoded_chunks == {
                "ts": 0 if covered else 1}

    def test_trailing_partial_morsel_is_covered(self, table, data):
        lo = int(data["ts"][(N_MORSELS - 1) * MORSEL])
        result = Query(table).where(col("ts") >= lo).sum("v") \
            .run(morsel=MORSEL)
        mask = data["ts"] >= lo
        assert result.scalar() == int(data["v"][mask].astype(object).sum())
        assert N_MORSELS - 1 in result.plan.covered_morsels.tolist()
        assert result.stats.rows_scanned == result.stats.rows_matched
        assert result.stats.rows_matched == int(mask.sum())

    def test_count_only_covered_morsels_decode_nothing(self, table, data):
        # Morsel-aligned bounds: every candidate morsel is covered, and
        # the predicate column is the only one the query reads.
        lo, hi = int(data["ts"][2 * MORSEL]), int(data["ts"][9 * MORSEL])
        assert data["ts"][2 * MORSEL - 1] < lo
        assert data["ts"][9 * MORSEL - 1] < hi
        ts = table["ts"]
        ts.stats.reset()
        ts.reset_replica_reads()
        result = Query(table).where(in_range("ts", lo, hi)).count() \
            .run(morsel=MORSEL)
        mask = (data["ts"] >= lo) & (data["ts"] < hi)
        assert result.scalar() == int(mask.sum())
        assert result.plan.covered_morsels.size == \
            result.plan.active_morsels.size > 0
        # Chunk row counts answer every covered chunk: no kernel runs.
        assert result.plan.covered_kernel is None
        assert result.stats.synopsis_chunks == {
            "ts": result.plan.chunks_candidate}
        assert result.stats.decoded_chunks == {"ts": 0}
        assert result.plan.predicted_replica_read_elements == {"ts": 0}
        assert ts.stats.chunk_unpacks == 0
        assert sum(ts.replica_read_elements) == 0

    def test_decode_accounting_is_per_column(self, data):
        table = unindexed_table(data)
        table.build_zone_map("ts")  # no synopsis answers sum(v)
        q = Query(table).where(in_range("ts", 12, 70)).sum("v")
        for name in ("ts", "v"):
            table[name].stats.reset()
            table[name].reset_replica_reads()
        result = q.run(morsel=MORSEL)
        plan = result.plan
        assert plan.covered_morsels.size > 0
        predicted = plan.predicted_decoded_chunks
        assert predicted["v"] == plan.chunks_candidate
        assert predicted["ts"] == plan.chunks_candidate - plan.chunks_covered
        assert result.stats.decoded_chunks == predicted
        for name in ("ts", "v"):
            assert table[name].stats.chunk_unpacks == predicted[name]
            assert sum(table[name].replica_read_elements) == \
                plan.predicted_replica_read_elements[name]
        text = plan.explain()
        assert (f"covered morsels: {plan.covered_morsels.size} of "
                f"{plan.active_morsels.size}") in text
        assert f"will decode {predicted['ts']} chunks" in text
        assert f"will decode {predicted['v']} chunks" in text

    def test_plan_without_covered_morsels_compiles_no_second_kernel(
            self, table):
        # ``v`` is uniform: every chunk spans the range's bounds.
        plan = Query(table).where(in_range("v", 100, 200)).sum("g") \
            .plan(morsel=MORSEL)
        assert plan.covered_morsels.size == 0
        assert plan.covered_kernel is None
        # The scattered candidates fragment two morsels, which decode
        # their candidate hulls (gaps included) in one call each.
        gaps = sum(stop - first - int(plan.candidate_mask[first:stop].sum())
                   for first, stop in plan.hulls.values())
        assert plan.chunks_kernel == plan.chunks_candidate + gaps
        assert plan.predicted_decoded_chunks == {
            "v": plan.chunks_kernel, "g": plan.chunks_kernel}

    def test_prune_off_covers_nothing(self, table):
        plan = Query(table).where(in_range("ts", 12, 70)).sum("v") \
            .plan(morsel=MORSEL, prune="off")
        assert plan.covered_morsels.size == 0
        assert plan.covered_kernel is None


class TestCoveredOutputs:
    """Every output shape on covered morsels, against NumPy."""

    LO, HI = 12, 70

    @pytest.fixture
    def mask(self, data):
        return (data["ts"] >= self.LO) & (data["ts"] < self.HI)

    def run(self, q):
        result = q.run(morsel=MORSEL)
        assert result.stats.morsels_covered > 0
        assert result.stats.decoded_chunks == \
            result.plan.predicted_decoded_chunks
        return result

    def where(self, table):
        return Query(table).where(in_range("ts", self.LO, self.HI))

    def test_aggregates(self, table, data, mask):
        result = self.run(self.where(table).sum("v").count().min("v")
                          .max("v").mean("v"))
        v = data["v"][mask].astype(object)
        assert result.aggregates == {
            "sum(v)": int(v.sum()), "count(*)": int(mask.sum()),
            "min(v)": int(v.min()), "max(v)": int(v.max()),
            "mean(v)": int(v.sum()) / int(mask.sum()),
        }

    def test_predicate_column_as_output(self, table, data, mask):
        result = self.run(self.where(table).sum("ts").max("ts"))
        ts = data["ts"][mask].astype(object)
        assert result.aggregates == {"sum(ts)": int(ts.sum()),
                                     "max(ts)": int(ts.max())}
        # The predicate column is an output: its synopsis answers the
        # covered chunks, and every other candidate chunk is decoded.
        assert result.stats.decoded_chunks["ts"] + \
            result.stats.synopsis_chunks["ts"] == \
            result.plan.chunks_candidate
        assert result.stats.synopsis_chunks["ts"] > 0

    def test_group_by(self, table, data, mask):
        result = self.run(self.where(table).group_by("g").sum("v").count())
        expected = {}
        for g, v in zip(data["g"][mask].tolist(), data["v"][mask].tolist()):
            s, c = expected.get(g, (0, 0))
            expected[g] = (s + v, c + 1)
        assert list(result.groups.items()) == [
            (g, {"sum(v)": s, "count(*)": c})
            for g, (s, c) in sorted(expected.items())]

    def test_projection(self, table, data, mask):
        result = self.run(self.where(table).select("v", "g"))
        rows = np.flatnonzero(mask)
        np.testing.assert_array_equal(result.rows, rows)
        np.testing.assert_array_equal(result["v"], data["v"][rows])
        np.testing.assert_array_equal(result["g"], data["g"][rows])

    @pytest.mark.parametrize("limit", [0, 5, 3000, 10 ** 6])
    def test_limit(self, table, data, mask, limit):
        result = self.where(table).select("v").limit(limit) \
            .run(morsel=MORSEL)
        rows = np.flatnonzero(mask)[:limit]
        np.testing.assert_array_equal(result.rows, rows)
        np.testing.assert_array_equal(result["v"], data["v"][rows])
        assert result.stats.decoded_chunks["ts"] <= \
            result.plan.predicted_decoded_chunks["ts"]

    def test_pooled_runs_are_identical(self, table, data, mask):
        from repro.runtime import default_pool

        q = self.where(table).group_by("g").sum("v")
        serial = q.run(morsel=MORSEL)
        for mode in ("threads", "serial"):
            pooled = q.run(morsel=MORSEL, pool=default_pool(4, mode=mode))
            assert list(pooled.groups.items()) == \
                list(serial.groups.items())
            assert pooled.stats.decoded_chunks == \
                serial.stats.decoded_chunks


class TestCoveredMigration:
    def test_width_swap_on_a_covered_morsel_recompiles_once(
            self, data, monkeypatch):
        # Every active morsel is covered; after the first one a
        # migration widens ``v``, so every later morsel pins the new
        # generation and runs the covered kernel compiled for it — one
        # compilation per execution.
        import dataclasses

        import repro.query.executor as executor
        from repro.adapt import Configuration
        from repro.core.allocate import default_allocator
        from repro.live import LiveMigrator

        calls = []
        compile_query = executor.compile_query

        def recorded(query, columns, column_bits, morsel_elements):
            calls.append((query.predicate is None, dict(column_bits)))
            return compile_query(query, columns, column_bits,
                                 morsel_elements)

        monkeypatch.setattr(executor, "compile_query", recorded)
        t = unindexed_table(data)
        t.build_zone_map("ts")  # no synopsis answers sum(v)
        lo, hi = int(data["ts"][2 * MORSEL]), int(data["ts"][9 * MORSEL])
        plan = Query(t).where(in_range("ts", lo, hi)).sum("v") \
            .plan(morsel=MORSEL)
        assert plan.covered_morsels.size == plan.active_morsels.size == 7
        planned = plan.covered_kernel
        ran = []

        def then_migrate(run):
            # Whichever lowering the morsel takes (the NumPy kernel or
            # its native twin), the migration lands right after it.
            def kernel(*args):
                out = run(*args)
                if not ran:
                    migration = LiveMigrator(default_allocator()).migrate(
                        t["v"], Configuration(t["v"].placement, 40))
                    assert migration.state == "completed"
                ran.append(1)
                return out
            return kernel

        plan.covered_kernel = dataclasses.replace(
            planned, fn=then_migrate(planned.fn),
            native=planned.native and then_migrate(planned.native))
        result = plan.execute()
        assert ran == [1]
        assert calls == [(True, {"v": 40})]
        mask = (data["ts"] >= lo) & (data["ts"] < hi)
        assert result.scalar() == int(data["v"][mask].astype(object).sum())
        assert result.stats.decoded_chunks == {
            "ts": 0, "v": plan.chunks_candidate}
