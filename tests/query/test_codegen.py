"""Fused-kernel codegen: every shape against NumPy/Python oracles.

Every plan runs its generated kernel; there is no second execution path
to diff against.  Aggregate tests check exact Python-int oracles, and
the predicate's mask is checked twice — ``Expr.evaluate`` (the predicate
reference) against the NumPy mask the test states, and the row kernel's
matching indices against both.
"""

import numpy as np
import pytest

from repro.core.map_api import SUPERCHUNK_ELEMENTS
from repro.core.table import SmartTable
from repro.query import (
    DEFAULT_MORSEL_ELEMENTS,
    Query,
    col,
    in_range,
    lit,
)
from repro.query.codegen import compile_query, _KERNEL_CACHE
from repro.runtime import default_pool

from ._tables import unindexed_table

U64_MAX = (1 << 64) - 1
N = 6000


def make_table(bits, n=N, seed=0, sorted_keys=False):
    """Two-column table whose columns genuinely need ``bits`` bits."""
    rng = np.random.default_rng(seed)
    hi = 1 << bits
    k = rng.integers(0, hi, n, dtype=np.uint64)
    v = rng.integers(0, hi, n, dtype=np.uint64)
    # Pin the storage width: min/max values present in both columns.
    k[0], k[1] = 0, hi - 1
    v[0], v[1] = hi - 1, 0
    if sorted_keys:
        k = np.sort(k)
    # Tests build the zone maps they prune with; no synopsis answers.
    t = unindexed_table({"k": k, "v": v}, replicated=True)
    assert t["k"].bits == bits and t["v"].bits == bits
    return t, k, v


def oracle_aggs(k, v, mask):
    """Exact aggregates via Python ints (no uint64 overflow)."""
    sel = v[mask]
    total = int(sel.astype(object).sum()) if sel.size else 0
    return {
        "sum(v)": total,
        "count(*)": int(mask.sum()),
        "min(v)": int(sel.min()) if sel.size else None,
        "max(v)": int(sel.max()) if sel.size else None,
        "mean(v)": total / sel.size if sel.size else None,
    }


def full_query(t):
    return (Query(t).sum("v").count().min("v").max("v").mean("v"))


def assert_both_paths(t, k, v, predicate, mask, pool=None):
    """The aggregate kernel == the Python-int oracle, and the row
    kernel's matches == ``Expr.evaluate`` == the stated NumPy mask."""
    aggregates, rows = full_query(t), Query(t).select("v")
    if predicate is not None:
        aggregates.where(predicate())
        rows.where(predicate())
        with np.errstate(over="ignore"):
            reference = predicate().evaluate({"k": k, "v": v})
        np.testing.assert_array_equal(reference, mask)
    compiled = aggregates.run(pool=pool)
    assert compiled.stats.mode == "compiled"
    assert compiled.aggregates == oracle_aggs(k, v, mask)
    selected = rows.run(pool=pool)
    np.testing.assert_array_equal(selected.rows, np.flatnonzero(mask))
    np.testing.assert_array_equal(selected.columns["v"], v[mask])
    return compiled


class TestBitWidths:
    @pytest.mark.parametrize("bits", [1, 7, 13, 33, 63, 64])
    def test_compiled_matches_interpreted(self, bits):
        t, k, v = make_table(bits)
        lo, hi = (1 << bits) // 4, ((1 << bits) * 3) // 4
        if bits == 1:
            lo, hi = 0, 1
        assert_both_paths(
            t, k, v,
            lambda: in_range("k", lo, hi),
            (k >= lo) & (k < hi),
        )

    @pytest.mark.parametrize("bits", [33, 63, 64])
    def test_wide_sums_are_exact(self, bits):
        # Values near the top of the domain: a naive uint64 span sum
        # would wrap; the 32-bit-halves fold must stay exact.
        rng = np.random.default_rng(1)
        top = 1 << bits
        vals = np.uint64(top - 1) - rng.integers(0, 1000, N).astype(np.uint64)
        vals[0] = np.uint64(top - 1)
        t = SmartTable.from_arrays({"k": vals, "v": vals}, replicated=True)
        assert t["v"].bits == bits
        assert_both_paths(t, vals, vals, None, np.ones(N, dtype=bool))


class TestWrappingArithmetic:
    def test_add_sub_mul_wrap_at_uint64_boundary(self):
        t, k, v = make_table(64, seed=3)
        with np.errstate(over="ignore"):
            for build, np_mask in [
                (lambda: (col("k") + 5) < 3,
                 (k + np.uint64(5)) < np.uint64(3)),
                (lambda: (col("k") - 7) >= U64_MAX - 6,
                 (k - np.uint64(7)) >= np.uint64(U64_MAX - 6)),
                (lambda: (col("k") * 2) < col("k"),
                 (k * np.uint64(2)) < k),
                (lambda: (col("k") + col("v")) == (col("v") + col("k")),
                 np.ones(N, dtype=bool)),
            ]:
                assert_both_paths(t, k, v, build, np_mask)

    def test_literal_arithmetic_operand(self):
        # Arith(Lit, Lit) as one compare side: a uint64 scalar at
        # runtime, constant in the generated source.
        t, k, v = make_table(33, seed=4)
        assert_both_paths(
            t, k, v,
            lambda: col("k") < (lit(1 << 30) + lit(1 << 30)),
            k < np.uint64(1 << 31),
        )


class TestOutOfDomainBounds:
    def test_clamped_constants_fold(self):
        t, k, v = make_table(13, seed=5)
        everything = np.ones(N, dtype=bool)
        nothing = np.zeros(N, dtype=bool)
        cases = [
            (lambda: col("k") >= -3, everything),
            (lambda: col("k") < (1 << 64) + 17, everything),
            (lambda: col("k") == 1 << 64, nothing),
            (lambda: col("k") != 1 << 65, everything),
            (lambda: col("k") > U64_MAX, nothing),
            (lambda: col("k") <= -1, nothing),
        ]
        for build, mask in cases:
            assert_both_paths(t, k, v, build, mask)

    def test_folded_constants_simplify_connectives(self):
        # TRUE & p -> p, FALSE | p -> p, ~TRUE -> FALSE: the generated
        # mask must shed everywhere-true/false branches yet agree with
        # Expr.evaluate's full array algebra.
        t, k, v = make_table(13, seed=6)
        p = (k >= 100) & (k < 4000)
        compiled = assert_both_paths(
            t, k, v,
            lambda: ((col("k") >= -3) & in_range("k", 100, 4000))
                    | (col("k") == 1 << 64),
            p,
        )
        source = compiled.plan.kernel.source
        # The everywhere-true/false leaves must not survive into code.
        assert "np.uint64(0)" not in source
        assert source.count("mask = ") == 1

    def test_everywhere_false_predicate(self):
        t, k, v = make_table(13, seed=7)
        compiled = assert_both_paths(
            t, k, v,
            lambda: col("k") > U64_MAX,
            np.zeros(N, dtype=bool),
        )
        # Decodes still happen (accounting parity) but no fold runs.
        assert compiled.stats.rows_matched == 0
        assert compiled.stats.decoded_chunks["k"] > 0


class TestBooleanNesting:
    def test_and_or_not_nesting(self):
        t, k, v = make_table(13, seed=8)
        km, vm = k, v
        cases = [
            (lambda: ~in_range("k", 100, 5000),
             ~((km >= 100) & (km < 5000))),
            (lambda: (~(col("k") < 2000)) | ((col("v") >= 1000)
                                             & ~(col("v") < 3000)),
             (~(km < 2000)) | ((vm >= 1000) & ~(vm < 3000))),
            (lambda: ~(~(col("k") >= 1000) | ~(col("v") < 6000)),
             ~(~(km >= 1000) | ~(vm < 6000))),
            (lambda: (col("k") == col("v")) | (col("k") != 5),
             (km == vm) | (km != 5)),
        ]
        for build, mask in cases:
            assert_both_paths(t, k, v, build, mask)


class TestCandidateMasks:
    def test_empty_candidates_after_pruning(self):
        # Zone maps prune every chunk: the kernel never runs, partials
        # stay empty, and the aggregates are the empty selection's.
        t, k, v = make_table(13, sorted_keys=True, seed=9)
        t.build_zone_map("k")
        beyond = 1 << 13
        compiled = assert_both_paths(
            t, k, v,
            lambda: col("k") >= beyond,
            np.zeros(N, dtype=bool),
        )
        assert compiled.plan.chunks_candidate == 0
        assert compiled.stats.decoded_chunks["k"] == 0

    def test_full_candidates_no_predicate(self):
        t, k, v = make_table(13, seed=10)
        compiled = assert_both_paths(
            t, k, v, None, np.ones(N, dtype=bool),
        )
        assert compiled.plan.chunks_candidate == compiled.plan.chunks_total
        assert compiled.stats.rows_matched == N


class TestParallelDeterminism:
    def test_compiled_parallel_bit_identical(self):
        t, k, v = make_table(33, sorted_keys=True, seed=11)
        t.build_zone_map("k")
        lo, hi = 1 << 30, 1 << 32
        q = full_query(t).where(in_range("k", lo, hi))
        serial = q.run()
        par = q.run(pool=default_pool(8))
        assert serial.aggregates == par.aggregates
        assert par.aggregates == oracle_aggs(k, v, (k >= lo) & (k < hi))


class TestAccountingParity:
    def test_compiled_decodes_exactly_candidate_chunks(self):
        t, k, v = make_table(33, sorted_keys=True, seed=12)
        t.build_zone_map("k")
        q = Query(t).where(in_range("k", 1 << 30, 1 << 32)).sum("v")
        before_k = t["k"].stats.chunk_unpacks
        before_v = t["v"].stats.chunk_unpacks
        result = q.run(morsel=DEFAULT_MORSEL_ELEMENTS)
        expected = result.plan.predicted_decoded_chunks
        assert expected["v"] == result.plan.chunks_candidate
        assert t["k"].stats.chunk_unpacks - before_k == expected["k"]
        assert t["v"].stats.chunk_unpacks - before_v == expected["v"]
        assert result.stats.decoded_chunks == expected


class TestKnobs:
    """The compile/interpret switches are gone: one execution path."""

    def test_query_knob_and_plan_kwarg_precedence(self):
        t, k, v = make_table(13, seed=13)
        assert not hasattr(Query(t), "codegen")
        with pytest.raises(TypeError):
            Query(t).sum("v").plan(codegen="off")
        # The planner kwargs that remain still beat the defaults.
        assert Query(t).sum("v").plan(morsel=256).morsel_elements == 256

    def test_env_var_default(self, monkeypatch):
        # The environment is not read: no value changes or breaks a plan.
        t, k, v = make_table(13, seed=14)
        for value in ("off", "banana"):
            monkeypatch.setenv("REPRO_QUERY_CODEGEN", value)
            result = Query(t).sum("v").run()
            assert result.stats.mode == "compiled"
            assert result["sum(v)"] == int(v.astype(object).sum())

    def test_auto_compiles_supported_interprets_rest(self):
        t, k, v = make_table(13, seed=15)
        for q in (Query(t).sum("v"),
                  Query(t).where(col("k") >= 5).select("v"),
                  Query(t).group_by("k").sum("v"),
                  Query(t).select("k", "v").limit(3),
                  Query(t).limit(3),
                  Query(t)):
            plan = q.plan()
            assert "def kernel(" in plan.kernel.source
            assert q.run().stats.mode == "compiled"

    def test_forcing_on_for_unsupported_shape_errors(self):
        # The row shape that forced compilation used to reject runs its
        # kernel and matches NumPy.
        t, k, v = make_table(13, seed=16)
        result = Query(t).where(col("k") >= 5).select("v").run()
        np.testing.assert_array_equal(result.rows, np.flatnonzero(k >= 5))
        np.testing.assert_array_equal(result.columns["v"], v[k >= 5])

    def test_unsupported_reason_surface(self):
        import repro.query as query
        import repro.query.codegen as codegen
        import repro.query.planner as planner

        for name in ("unsupported_reason", "CODEGEN_MODES",
                     "CODEGEN_ENV_VAR", "COMPILED_MORSEL_ELEMENTS"):
            assert not hasattr(query, name)
        for name in ("unsupported_reason", "resolve_mode", "CODEGEN_MODES",
                     "CODEGEN_ENV_VAR"):
            assert not hasattr(codegen, name)
        assert not hasattr(planner, "validate_range")

    def test_compiled_default_morsel_is_larger(self):
        t, k, v = make_table(13, seed=18)
        assert Query(t).sum("v").plan().morsel_elements == \
            DEFAULT_MORSEL_ELEMENTS == 65536
        assert Query(t).select("v").plan().morsel_elements == \
            DEFAULT_MORSEL_ELEMENTS
        # LIMIT keeps one-superchunk morsels: its early exit skips
        # whole morsels, so smaller ones decode less past the budget.
        assert Query(t).select("v").limit(5).plan().morsel_elements == \
            SUPERCHUNK_ELEMENTS
        # An explicit knob wins either way.
        assert Query(t).sum("v").plan(morsel=256).morsel_elements == 256
        assert Query(t).limit(5).plan(morsel=256).morsel_elements == 256


class TestExplainAndCache:
    def test_explain_reports_mode_and_source(self):
        t, k, v = make_table(13, seed=19)
        q = Query(t).where(col("k") >= 100).sum("v")
        text = q.explain()
        assert "execution mode: compiled (fused kernel)" in text
        assert "def kernel(runs, n_rows, lits, " in text
        # The bound is a runtime parameter of the kernel; its value is
        # printed under the source so the audit trail stays whole.
        assert "mask = (c0 >= lits[0])" in text
        assert "np.uint64(100)" not in text
        assert text.endswith("  literals: lits[0] = 100")
        assert "interpreted" not in text

    def test_identical_plans_share_compiled_functions(self):
        t, k, v = make_table(13, seed=20)
        q = Query(t).where(col("k") >= 100).sum("v")
        k1 = q.plan().kernel
        k2 = q.plan().kernel
        assert k1.source == k2.source
        assert k1.fn is k2.fn
        assert (k1.source, k1.fn) in _KERNEL_CACHE.values()

    def test_zero_column_kernel_compiles(self):
        # A bare count(*) on an empty table needs no columns at all;
        # the generated signature must still be valid.
        t = SmartTable.from_arrays(
            {"k": np.empty(0, dtype=np.uint64)}, replicated=True
        )
        plan = Query(t).count().plan()
        assert plan.needed_columns == ()
        assert "def kernel(runs, n_rows, lits):" in plan.kernel.source
        result = Query(t).count().run()
        assert result["count(*)"] == 0


# -- group-by kernels ------------------------------------------------------

GROUP_N = 3000
KEY_BITS = (1, 4, 12, 16, 17, 33, 64)
VALUE_BITS = (7, 20, 33, 36, 37, 38, 63, 64)
AGGREGATES = {
    "sum(v)": lambda q: q.sum("v"),
    "count(*)": lambda q: q.count(),
    "min(v)": lambda q: q.min("v"),
    "max(v)": lambda q: q.max("v"),
    "mean(v)": lambda q: q.mean("v"),
}


def random_column(rng, bits, n):
    """``n`` values spanning the whole ``bits``-wide domain."""
    if bits == 64:
        out = rng.integers(0, 1 << 63, n, dtype=np.uint64) * np.uint64(2)
        out += rng.integers(0, 2, n, dtype=np.uint64)
    else:
        out = rng.integers(0, 1 << bits, n, dtype=np.uint64)
    out[0], out[1] = 0, (1 << bits) - 1
    return out


def group_table(key_bits, value_bits, n=GROUP_N, seed=0, codecs=None):
    rng = np.random.default_rng([seed, key_bits, value_bits])
    k = random_column(rng, key_bits, n)
    v = random_column(rng, value_bits, n)[::-1].copy()
    # Tests build the maps they prune with.
    t = unindexed_table({"k": k, "v": v}, replicated=True, codecs=codecs)
    assert t["k"].value_bits == key_bits and t["v"].value_bits == value_bits
    return t, k, v


def oracle_groups(k, v, mask, names=tuple(AGGREGATES)):
    """Plain NumPy/Python grouping: exact Python-int sums, keys sorted."""
    members = {}
    for key, value in zip(k[mask].tolist(), v[mask].tolist()):
        members.setdefault(key, []).append(value)
    fold = {
        "sum(v)": sum,
        "count(*)": len,
        "min(v)": min,
        "max(v)": max,
        "mean(v)": lambda vals: sum(vals) / len(vals),
    }
    return {key: {name: fold[name](members[key]) for name in names}
            for key in sorted(members)}


def grouped(t, names=tuple(AGGREGATES), predicate=None):
    q = Query(t).group_by("k")
    if predicate is not None:
        q = q.where(predicate)
    for name in names:
        q = AGGREGATES[name](q)
    return q


def assert_groups_identical(a, b):
    """Same keys in the same order, same Python-int partials."""
    assert list(a.items()) == list(b.items())
    for aggs in a.values():
        for name, value in aggs.items():
            expected = float if name.startswith("mean") else int
            assert type(value) is expected, (name, value)


def assert_grouped_paths(t, k, v, predicate, mask, names=tuple(AGGREGATES),
                         **run):
    """The grouped kernel == the plain-Python oracle, key order and
    value types included, decoding exactly the planned chunks."""
    compiled = grouped(t, names, predicate).run(**run)
    assert compiled.stats.mode == "compiled"
    assert_groups_identical(compiled.groups,
                            oracle_groups(k, v, mask, names))
    assert compiled.stats.decoded_chunks == \
        compiled.plan.predicted_decoded_chunks
    assert compiled.stats.rows_matched == int(mask.sum())
    return compiled


class TestGroupByWidths:
    @pytest.mark.parametrize("value_bits", VALUE_BITS)
    @pytest.mark.parametrize("key_bits", KEY_BITS)
    def test_every_aggregate_and_predicate_shape(self, key_bits, value_bits):
        t, k, v = group_table(key_bits, value_bits)
        t.build_zone_map("v")
        top = (1 << value_bits) - 1
        shapes = [
            (None, np.ones(GROUP_N, dtype=bool), None),
            (in_range("v", top // 4, top // 2),
             (v >= top // 4) & (v < top // 2), None),
            # Folded to FALSE at compile time: decodes, never folds.
            (col("k") > U64_MAX, np.zeros(GROUP_N, dtype=bool), False),
            # Every chunk pruned by the zone map: the kernel never runs.
            (col("v") > top, np.zeros(GROUP_N, dtype=bool), True),
        ]
        for predicate, mask, pruned in shapes:
            compiled = assert_grouped_paths(t, k, v, predicate, mask)
            if pruned is not None:
                assert compiled.groups == {}
                assert (compiled.plan.chunks_candidate == 0) is pruned
            # Each aggregate alone takes its own fold specialization.
            for name in AGGREGATES:
                alone = grouped(t, (name,), predicate).run()
                assert_groups_identical(
                    alone.groups, oracle_groups(k, v, mask, (name,)))

    @pytest.mark.parametrize("key_bits", [4, 33])
    def test_large_morsels_split_sums_into_narrower_limbs(self, key_bits):
        # Past 2**21 rows per fold 32-bit halves no longer sum exactly
        # in float64; the limbs narrow instead.
        t, k, v = group_table(key_bits, 64, seed=1)
        compiled = assert_grouped_paths(
            t, k, v, None, np.ones(GROUP_N, dtype=bool), morsel=1 << 22)
        assert ">> np.uint64(60)" in compiled.plan.kernel.source

    def test_key_column_also_aggregated(self):
        t, k, v = group_table(12, 20, seed=2)
        compiled = Query(t).group_by("k").sum("k").max("k").count().run()
        expected = {
            key: {"sum(k)": key * n, "max(k)": key, "count(*)": n}
            for key, n in zip(*(x.tolist() for x in
                                np.unique(k, return_counts=True)))
        }
        assert_groups_identical(compiled.groups, expected)
        key, aggs = next(iter(compiled.groups.items()))
        assert aggs["sum(k)"] == key * aggs["count(*)"]
        assert aggs["max(k)"] == key


class TestGroupByShapes:
    @pytest.mark.parametrize("key", [0, 5, (1 << 40) + 3, U64_MAX])
    def test_single_group(self, key):
        rng = np.random.default_rng(3)
        k = np.full(GROUP_N, key, dtype=np.uint64)
        v = random_column(rng, 33, GROUP_N)
        t = SmartTable.from_arrays({"k": k, "v": v}, replicated=True)
        compiled = assert_grouped_paths(
            t, k, v, None, np.ones(GROUP_N, dtype=bool))
        assert list(compiled.groups) == [key]

    @pytest.mark.parametrize("shift", [0, 20, 50])
    def test_all_distinct_keys(self, shift):
        rng = np.random.default_rng(4)
        k = rng.permutation(GROUP_N).astype(np.uint64) << np.uint64(shift)
        v = random_column(rng, 20, GROUP_N)
        t = SmartTable.from_arrays({"k": k, "v": v}, replicated=True)
        compiled = assert_grouped_paths(
            t, k, v, None, np.ones(GROUP_N, dtype=bool))
        assert len(compiled.groups) == GROUP_N

    def test_sums_past_two_to_the_64(self):
        # 3000 values a hair under 2**64 in two groups: every per-group
        # sum overflows uint64 many times over; totals stay Python ints.
        rng = np.random.default_rng(5)
        k = rng.integers(0, 2, GROUP_N, dtype=np.uint64)
        v = np.uint64(U64_MAX) - rng.integers(
            0, 1000, GROUP_N).astype(np.uint64)
        t = SmartTable.from_arrays({"k": k, "v": v}, replicated=True)
        compiled = assert_grouped_paths(
            t, k, v, None, np.ones(GROUP_N, dtype=bool))
        assert all(aggs["sum(v)"] > 1 << 64
                   for aggs in compiled.groups.values())

    def test_encoded_key_and_value_columns(self):
        # Codec columns decode to full-magnitude values: the fold must
        # be sized on value_bits, not the payload width.
        rng = np.random.default_rng(6)
        k = (rng.integers(0, 9, GROUP_N).astype(np.uint64)
             * np.uint64(1 << 36))
        v = (np.uint64(1 << 45)
             + np.cumsum(rng.integers(0, 50, GROUP_N)).astype(np.uint64))
        t = SmartTable.from_arrays({"k": k, "v": v}, replicated=True,
                                   codecs={"k": "dict", "v": "delta"})
        assert t["k"].bits < t["k"].value_bits
        assert t["v"].bits < t["v"].value_bits
        lo = int(v[GROUP_N // 3])
        compiled = assert_grouped_paths(
            t, k, v, col("v") >= lo, v >= np.uint64(lo))
        assert compiled.plan.kernel.column_bits == {
            "v": t["v"].value_bits, "k": t["k"].value_bits}

    def test_serial_threaded_static_bit_identical(self):
        # No pool, a threaded pool, and a serial pool (a static
        # schedule: its first worker claims every morsel in order).
        t, k, v = group_table(12, 38, n=20_000, seed=7)
        predicate = lambda: col("v") >= (1 << 36)
        mask = v >= np.uint64(1 << 36)
        serial = assert_grouped_paths(t, k, v, predicate(), mask,
                                      morsel=4096)
        for mode in ("threads", "serial"):
            pooled = grouped(t, predicate=predicate()).run(
                morsel=4096, pool=default_pool(8, mode=mode))
            assert pooled.stats.morsels_executed > 1
            assert_groups_identical(pooled.groups, serial.groups)


class TestGroupByKernelCache:
    def test_fold_is_shared_across_literals(self):
        # A fresh literal is the same kernel with another ``lits``
        # tuple, and the grouped reduce it calls is compiled once per
        # width specialization.
        from repro.query.codegen import group_fold

        t, k, v = group_table(12, 20, seed=8)
        first = grouped(t, ("sum(v)",), col("v") >= 100).plan().kernel
        info = group_fold.cache_info()
        again = grouped(t, ("sum(v)",), col("v") >= 100).plan().kernel
        other = grouped(t, ("sum(v)",), col("v") >= 101).plan().kernel
        # A kernel-cache hit generates nothing, the fold included.
        assert group_fold.cache_info() == info
        assert first.fn is again.fn
        assert (first.source, first.fn) in _KERNEL_CACHE.values()
        assert other.fn is first.fn
        assert other.source == first.source
        assert (first.literals, other.literals) == ((100,), (101,))
        # A different width is a different fold.
        t2, _, _ = group_table(12, 40, seed=8)
        wider = grouped(t2, ("sum(v)",), col("v") >= 100).plan().kernel
        assert wider.fn.__globals__["fold"] is not \
            first.fn.__globals__["fold"]

    def test_explain_prints_fold_and_kernel(self):
        t, k, v = group_table(4, 20, seed=9)
        text = grouped(t, ("sum(v)", "count(*)"),
                       col("v") >= 100).explain()
        assert "execution mode: compiled (fused kernel)" in text
        assert "def fold(groups, keys, v0):" in text
        assert "np.bincount(idx, minlength=16)" in text
        assert "def kernel(" in text
        assert "fold(groups, v_c1, v_c0)" in text
        assert "mask = (c0 >= lits[0])" in text
        assert text.endswith("  literals: lits[0] = 100")

    def test_compile_query_signature_is_positional(self):
        t, k, v = group_table(4, 20, seed=10)
        q = grouped(t, ("sum(v)",))
        plan = q.plan()
        kernel = compile_query(q, plan.needed_columns,
                               plan.kernel.column_bits, plan.morsel_elements)
        assert kernel.fn is plan.kernel.fn
        assert plan.morsel_elements == DEFAULT_MORSEL_ELEMENTS


def swap_width(plan, array, bits):
    """Disarm ``plan``'s kernel, then migrate ``array`` to ``bits``: a
    morsel that still ran the planned kernel would raise."""
    import dataclasses

    from repro.adapt import Configuration
    from repro.core.allocate import default_allocator
    from repro.live import LiveMigrator

    def never(*args):
        raise AssertionError("kernel ran against a swapped width")

    plan.kernel = dataclasses.replace(plan.kernel, fn=never)
    migration = LiveMigrator(default_allocator()).migrate(
        array, Configuration(array.placement, bits))
    assert migration.state == "completed"


@pytest.fixture
def recompiles(monkeypatch):
    """Column widths of every kernel the executor compiles for a
    morsel's pinned generations, in call order."""
    import repro.query.executor as executor

    calls = []
    compile_query = executor.compile_query

    def recorded(query, columns, column_bits, morsel_elements):
        calls.append(dict(column_bits))
        return compile_query(query, columns, column_bits, morsel_elements)

    monkeypatch.setattr(executor, "compile_query", recorded)
    return calls


class TestGroupByLiveMigration:
    @pytest.mark.parametrize("column,bits", [("k", 32), ("v", 64)])
    def test_width_swap_between_plan_and_pin_falls_back(self, column, bits,
                                                        recompiles):
        t, k, v = group_table(12, 20, seed=11)
        plan = grouped(t).plan(morsel=1024)
        planned = dict(plan.kernel.column_bits)
        swap_width(plan, t[column], bits)
        assert t[column].value_bits == bits != planned[column]
        # Every morsel pins the swapped generation and runs the kernel
        # compiled for it — compiled once, not once per morsel.
        result = plan.execute()
        assert result.stats.morsels_executed == 3
        assert recompiles == [{**planned, column: bits}]
        assert_groups_identical(
            result.groups,
            oracle_groups(k, v, np.ones(GROUP_N, dtype=bool)))


# -- literal-free kernels and the bounded kernel cache ------------------------


@pytest.fixture
def kernel_cache(monkeypatch):
    """An empty kernel cache (and fold memo) for tests that count its
    entries; the real one is back after the test."""
    from collections import OrderedDict

    import repro.query.codegen as codegen

    cache = OrderedDict()
    monkeypatch.setattr(codegen, "_KERNEL_CACHE", cache)
    codegen.group_fold.cache_clear()
    return cache


def rss_bytes():
    """Resident set size right now (Linux ``/proc``; skips elsewhere)."""
    import gc
    import os

    gc.collect()
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:  # pragma: no cover - non-Linux
        pytest.skip("needs /proc/self/statm")


class TestLiteralFreeKernels:
    def test_in_domain_literals_share_one_function(self):
        # Every in-domain bound — 0, 2**63 and 2**64-1 included — is a
        # runtime parameter: one source, one compiled function, the
        # values in ``literals``, and the same answers as
        # ``Expr.evaluate`` and the oracle.
        t, k, v = make_table(64, seed=30)
        k[2], k[3] = 1 << 63, 5
        t = SmartTable.from_arrays({"k": k, "v": v}, replicated=True)
        edges = (1, 1 << 63, U64_MAX)
        first = None
        for lo in edges:
            for hi in edges:
                for eq in (0, 1 << 63, U64_MAX):
                    compiled = assert_both_paths(
                        t, k, v,
                        lambda: ((col("k") >= lo) & (col("k") < hi))
                        | (col("k") == eq),
                        ((k >= lo) & (k < hi)) | (k == eq),
                    )
                    kernel = compiled.plan.kernel
                    first = first or kernel
                    assert kernel.fn is first.fn
                    assert kernel.source == first.source
                    assert kernel.literals == (lo, hi, eq)
                    assert all(type(x) is np.uint64 for x in kernel.literals)
        assert ("mask = (((c0 >= lits[0]) & (c0 < lits[1])) | "
                "(c0 == lits[2]))") in first.source

    def test_arithmetic_literals_are_parameters_too(self):
        t, k, v = make_table(13, seed=31)
        kernels = []
        for add, bound in ((3, 100), (7, 4000)):
            compiled = assert_both_paths(
                t, k, v,
                lambda: (col("k") + lit(add)) < bound,
                (k + np.uint64(add)) < np.uint64(bound),
            )
            kernels.append(compiled.plan.kernel)
            assert kernels[-1].literals == (add, bound)
        assert kernels[0].fn is kernels[1].fn

    def test_clamped_bounds_are_a_different_shape_not_a_literal(
            self, kernel_cache):
        # A bound outside the uint64 domain folds at compile time: the
        # leaf disappears from the source (another shape), however far
        # outside it lies, so the cache grows per shape only.
        t, k, v = make_table(13, seed=32)
        inside = (k >= 100)
        everything, nothing = np.ones(N, bool), np.zeros(N, bool)
        shapes = [
            (lambda far: (col("k") >= 100) & (col("k") >= -far),
             inside, (100,)),
            (lambda far: (col("k") >= 100) & (col("k") < (1 << 64) + far),
             inside, (100,)),
            (lambda far: (col("k") >= 100) | (col("k") < -far),
             inside, (100,)),
            (lambda far: (col("k") >= 100) | (col("k") > U64_MAX + far),
             inside, (100,)),
            (lambda far: (col("k") >= 100) & (col("k") == -far),
             nothing, ()),
            (lambda far: (col("k") >= 100) | (col("k") != (1 << 64) + far),
             everything, ()),
        ]
        sources = set()
        for build, mask, literals in shapes:
            fns = set()
            for far in (1, 3, 1 << 70):
                compiled = assert_both_paths(
                    t, k, v, lambda: build(far), mask)
                kernel = compiled.plan.kernel
                assert kernel.literals == literals
                fns.add(kernel.fn)
                sources.add(kernel.source)
            assert len(fns) == 1
        # Four of the six fold down to the one ``k >= lits[0]`` shape;
        # each shape is kept once as an aggregate and once as a row
        # kernel.
        assert len(sources) == 3
        assert len(kernel_cache) == 2 * 3

    def test_width_swap_with_bound_literals_falls_back(self, recompiles):
        # The kernel takes ``lits``; a morsel whose pinned width no
        # longer matches the plan runs the kernel for its widths, bound
        # to the same literals.
        t, k, v = make_table(13, seed=33)
        q = full_query(t).where(in_range("k", 100, 4000))
        plan = q.plan()
        assert plan.kernel.literals == (100, 4000)
        expected = oracle_aggs(k, v, (k >= 100) & (k < 4000))
        assert plan.execute().aggregates == expected
        assert recompiles == []

        swap_width(plan, t["v"], 40)
        assert plan.execute().aggregates == expected
        assert recompiles == [{"k": 13, "v": 40}]
        # Each execution compiles its own: a cache hit, no new source.
        assert plan.execute().aggregates == expected
        assert recompiles == [{"k": 13, "v": 40}] * 2


class TestKernelCacheBound:
    def test_distinct_literals_leave_one_entry(self, kernel_cache):
        # 20,000 statements of one shape: one compiled kernel, and no
        # memory that grows with the number of statements (the parent's
        # source-with-constants key kept all 20,000: +76.6 MB).
        t, k, v = make_table(13, n=256, seed=34)
        Query(t).where(in_range("k", 1, 2)).sum("v").plan()
        before = rss_bytes()
        fns = set()
        for i in range(20_000):
            plan = (Query(t).where(in_range("k", i + 1, i + 100))
                    .sum("v").plan())
            fns.add(plan.kernel.fn)
        assert len(fns) == 1
        assert len(kernel_cache) == 1
        assert rss_bytes() - before < 5 << 20

    def test_second_plan_of_a_shape_generates_no_source(self, kernel_cache,
                                                         monkeypatch):
        import repro.query.codegen as codegen

        generated = []
        generate = codegen._generate_kernel

        def counted(key, *args):
            generated.append(key)
            return generate(key, *args)

        monkeypatch.setattr(codegen, "_generate_kernel", counted)
        t, k, v = make_table(13, n=256, seed=37)
        g, _, _ = group_table(4, 20, n=256, seed=38)
        for lo, hi in ((1, 50), (7, 90), (-3, 2**64)):
            Query(t).where(in_range("k", lo, hi)).sum("v").plan()
            grouped(g, ("sum(v)",), col("v") >= lo + 1).plan()
        # One generation per shape; ``-3`` folds each bound to true,
        # which is a shape of its own.
        assert len(generated) == len(set(generated)) == 4

    def test_widths_in_one_sum_regime_share_one_compiled_function(
            self, kernel_cache):
        # 31- and 32-bit columns both sum in one uint64 accumulator: two
        # keys (the widths differ), one source text, one compile.
        plans = [Query(make_table(bits, n=256, seed=bits)[0])
                 .where(in_range("k", 1, 50)).sum("v").plan()
                 for bits in (31, 32)]
        assert len(kernel_cache) == 2
        assert plans[0].kernel.source == plans[1].kernel.source
        assert plans[0].kernel.fn is plans[1].kernel.fn
        # Across the split-sum threshold the text, and the function,
        # differ.
        wide = Query(make_table(60, n=256, seed=60)[0]).where(
            in_range("k", 1, 50)).sum("v").plan()
        assert wide.kernel.fn is not plans[0].kernel.fn

    def test_group_by_leaves_one_kernel_and_one_fold(self, kernel_cache):
        t, k, v = group_table(4, 20, n=256, seed=35)
        fns = set()
        for i in range(20_000):
            plan = grouped(t, ("sum(v)",), col("v") >= i + 1).plan()
            fns.add(plan.kernel.fn)
        assert len(fns) == 1
        assert len(kernel_cache) == 2
        assert sum(key[0] == "fold" for key in kernel_cache) == 1
        source, fn = next(entry for key, entry in kernel_cache.items()
                          if key[0] != "fold")
        assert fn is plan.kernel.fn and source == plan.kernel.source

    def test_cap_evicts_the_least_recently_planned_shape(self, kernel_cache):
        import itertools

        from repro.query.codegen import _KERNEL_CACHE_CAP as cap

        t, k, v = make_table(13, n=256, seed=36)
        folds = [(kind, column) for kind in ("sum", "min", "max", "mean")
                 for column in ("k", "v")] + [("count", None)]
        shapes = list(itertools.islice(
            itertools.permutations(folds, 3), cap + 1))

        def query(shape):
            q = Query(t).where(col("k") >= 100)
            for kind, column in shape:
                q = q.count() if column is None else getattr(q, kind)(column)
            return q

        kernels = [query(shape).plan().kernel for shape in shapes[:cap]]
        assert len(kernel_cache) == cap
        # A hit refreshes: the oldest shape is planned again, so the
        # next new shape evicts the second oldest instead.
        assert query(shapes[0]).plan().kernel.fn is kernels[0].fn
        query(shapes[cap]).plan()
        assert len(kernel_cache) == cap
        kept = {source for source, _fn in kernel_cache.values()}
        assert kernels[0].source in kept
        assert kernels[1].source not in kept
        # The evicted shape recompiles and still answers exactly.
        again = query(shapes[1])
        result = again.run()
        assert result.plan.kernel.fn is not kernels[1].fn
        assert result.plan.kernel.source == kernels[1].source
        cols, sel = {"k": k, "v": v}, k >= 100
        fold = {"sum": sum, "min": min, "max": max,
                "mean": lambda xs: sum(xs) / len(xs)}
        assert result.aggregates == {
            spec.name: (int(sel.sum()) if spec.column is None
                        else fold[spec.kind](cols[spec.column][sel].tolist()))
            for spec in again.aggregates}
        assert len(kernel_cache) == cap


# -- row kernels -------------------------------------------------------------

ROW_N = 20_000
PROJECTION_BITS = (1, 7, 20, 33, 64)
#: name -> (predicate builder or None, NumPy mask of (k, p), whether the
#: zone map on the sorted ``k`` can prune it).
ROW_PREDICATES = {
    "none": (None, lambda k, p: np.ones(k.size, dtype=bool)),
    "selective": (lambda: in_range("k", 1 << 18, 1 << 19),
                  lambda k, p: (k >= 1 << 18) & (k < 1 << 19)),
    # Clamped bounds fold the mask to a constant; ``p`` has no zone
    # map, so every chunk is still decoded.
    "folded true": (lambda: col("p") >= -3,
                    lambda k, p: np.ones(k.size, dtype=bool)),
    "folded false": (lambda: col("p") > U64_MAX,
                     lambda k, p: np.zeros(k.size, dtype=bool)),
    "fully pruned": (lambda: col("k") >= 1 << 20,
                     lambda k, p: np.zeros(k.size, dtype=bool)),
}


def row_table(bits, seed=0, codecs=None, p=None):
    """Sorted 20-bit ``k`` (zone-mapped) plus a ``bits``-wide ``p``."""
    rng = np.random.default_rng([seed, bits])
    k = np.sort(rng.integers(0, 1 << 20, ROW_N, dtype=np.uint64))
    if p is None:
        p = random_column(rng, bits, ROW_N)
    t = unindexed_table({"k": k, "p": p}, replicated=True, codecs=codecs)
    t.build_zone_map("k")  # only ``k`` is zone-mapped
    return t, k, p


def row_query(t, predicate=None, limit=None, projection=("p", "k")):
    q = Query(t)
    if predicate is not None:
        q.where(predicate())
    q.select(*projection)
    if limit is not None:
        q.limit(limit)
    return q


def zone_candidates(k, predicate_name):
    """Per-chunk candidacy the zone map on ``k`` must arrive at."""
    n_chunks = -(-k.size // 64)
    padded = np.concatenate([k, np.full(n_chunks * 64 - k.size, k[-1])])
    lo_k, hi_k = (padded.reshape(n_chunks, 64).min(axis=1),
                  padded.reshape(n_chunks, 64).max(axis=1))
    if predicate_name == "selective":
        return (hi_k >= 1 << 18) & (lo_k < 1 << 19)
    if predicate_name == "fully pruned":
        return hi_k >= 1 << 20
    return np.ones(n_chunks, dtype=bool)


def limit_oracle(candidates, mask, limit, morsel_chunks):
    """``(decoded chunks, morsels skipped)`` of a serial run: morsels in
    order, each decoding its candidate chunks, until the matched rows of
    the completed prefix cover ``limit``; fully pruned morsels are
    never visited."""
    decoded = skipped = matched = 0
    satisfied = limit == 0
    for first in range(0, candidates.size, morsel_chunks):
        chunks = candidates[first:first + morsel_chunks]
        if not chunks.any():
            continue
        if limit is not None and satisfied:
            skipped += 1
            continue
        decoded += int(chunks.sum())
        matched += int(mask[first * 64:(first + morsel_chunks) * 64].sum())
        satisfied = limit is not None and matched >= limit
    return decoded, skipped


def assert_rows(result, mask, columns, limit=None):
    """Indices, values and dtypes equal the NumPy oracle's."""
    idx = np.flatnonzero(mask)[:limit]
    assert result.kind == "rows" and result.stats.mode == "compiled"
    assert result.rows.dtype == np.int64
    np.testing.assert_array_equal(result.rows, idx)
    assert list(result.columns) == list(columns)
    for name, values in columns.items():
        assert result.columns[name].dtype == np.uint64
        np.testing.assert_array_equal(result.columns[name], values[idx])


class TestRowKernels:
    @pytest.mark.parametrize("bits", PROJECTION_BITS)
    def test_projection_predicate_limit_matrix(self, bits):
        t, k, p = row_table(bits)
        for name, (predicate, mask_of) in ROW_PREDICATES.items():
            mask = mask_of(k, p)
            candidates = zone_candidates(k, name)
            for limit in (None, 0, 1, int(mask.sum()) + 7):
                result = row_query(t, predicate, limit).run()
                assert_rows(result, mask, {"p": p, "k": k}, limit)
                plan = result.plan
                assert plan.chunks_candidate == int(candidates.sum())
                decoded, skipped = limit_oracle(
                    candidates, mask, limit, plan.morsel_elements // 64)
                assert result.stats.decoded_chunks == {
                    column: decoded for column in plan.needed_columns}
                assert result.stats.morsels_skipped == skipped
                assert plan.morsel_elements == (
                    DEFAULT_MORSEL_ELEMENTS if limit is None
                    else SUPERCHUNK_ELEMENTS)

    def test_limit_skips_as_many_morsels_as_before(self):
        # Counts measured on the interpreted executor this kernel
        # replaced (one-superchunk morsels for every row query): a
        # LIMIT plan still decodes and skips exactly that much.
        t, k, p = row_table(20)
        pred = ROW_PREDICATES["selective"][0]
        stats = {limit: row_query(t, pred, limit).run().stats
                 for limit in (0, 1, 5000)}
        assert {limit: (s.morsels_skipped, s.decoded_chunks["k"])
                for limit, s in stats.items()} == {
            0: (2, 0), 1: (1, 51), 5000: (0, 79)}
        unfiltered = row_query(t, None, 4097).run().stats
        assert (unfiltered.morsels_skipped,
                unfiltered.decoded_chunks["p"]) == (3, 128)

    def test_zero_column_shapes(self):
        # ``Query(t).limit(n)`` and ``Query(t)`` decode no column at
        # all; the kernel still counts rows and yields indices.
        t, k, p = row_table(7)
        for limit in (None, 0, 5, ROW_N + 1):
            q = Query(t) if limit is None else Query(t).limit(limit)
            result = q.run()
            assert result.plan.needed_columns == ()
            assert "def kernel(runs, n_rows, lits):" in \
                result.plan.kernel.source
            assert_rows(result, np.ones(ROW_N, dtype=bool), {}, limit)
            assert result.stats.decoded_chunks == {}
        # An empty projection still scans the cheapest column.
        result = Query(t).select().run()
        assert result.plan.needed_columns == ("p",)
        assert_rows(result, np.ones(ROW_N, dtype=bool), {})

    def test_repeated_projection_is_one_column(self):
        t, k, p = row_table(33)
        result = row_query(t, ROW_PREDICATES["selective"][0],
                           projection=("p", "k", "p")).run()
        assert_rows(result, (k >= 1 << 18) & (k < 1 << 19),
                    {"p": p, "k": k})

    def test_dict_and_delta_columns(self):
        rng = np.random.default_rng(12)
        palette = random_column(rng, 45, 40)
        p = palette[rng.integers(0, palette.size, ROW_N)]
        t, k, p = row_table(45, codecs={"k": "delta", "p": "dict"}, p=p)
        assert t["k"].bits < t["k"].value_bits
        assert t["p"].bits < t["p"].value_bits
        for name, (predicate, mask_of) in ROW_PREDICATES.items():
            mask = mask_of(k, p)
            for limit in (None, 1):
                result = row_query(t, predicate, limit).run()
                assert_rows(result, mask, {"p": p, "k": k}, limit)

    @pytest.mark.parametrize("limit", [None, 3, 2500])
    def test_serial_threaded_static_identical(self, limit):
        t, k, p = row_table(33, seed=3)
        pred = ROW_PREDICATES["selective"][0]
        mask = ROW_PREDICATES["selective"][1](k, p)
        # No pool, a threaded pool, and a serial pool (a static
        # schedule: its first worker claims every morsel in order).
        serial = row_query(t, pred, limit).run(morsel=4096)
        assert_rows(serial, mask, {"p": p, "k": k}, limit)
        for mode in ("threads", "serial"):
            pooled = row_query(t, pred, limit).run(
                morsel=4096, pool=default_pool(8, mode=mode))
            np.testing.assert_array_equal(pooled.rows, serial.rows)
            for name in ("p", "k"):
                np.testing.assert_array_equal(pooled.columns[name],
                                              serial.columns[name])

    def test_second_plan_of_a_shape_generates_no_source(self, kernel_cache,
                                                        monkeypatch):
        import repro.query.codegen as codegen

        generated = []
        generate = codegen._generate_kernel

        def counted(key, *args):
            generated.append(key)
            return generate(key, *args)

        monkeypatch.setattr(codegen, "_generate_kernel", counted)
        t, k, p = row_table(20, seed=4)
        for lo, limit in ((1, 5), (70, 9), (9000, 0)):
            plan = row_query(t, lambda: col("k") >= lo, limit).plan()
            assert plan.kernel.literals == (lo,)
            if lo == 1:
                first = list(generated)
        # The first plan generates its kernel, and the predicate-free
        # twin its covered morsels run; later plans generate nothing.
        assert generated == first
        assert [key.predicate for key in generated] == ["(c0 >= lits[0])",
                                                        True]
        assert all(key.projection == ("p", "k") for key in generated)

    def test_explain_prints_the_row_kernel(self):
        t, k, p = row_table(20, seed=5)
        text = row_query(t, lambda: col("k") >= 100, 10).explain()
        assert "execution mode: compiled (fused kernel)" in text
        assert "def kernel(runs, n_rows, lits, dec0, rep0, buf0, " \
            "dec1, rep1, buf1):" in text
        assert "mask = (c0 >= lits[0])" in text
        assert "rows.append(np.flatnonzero(mask) + base)" in text
        assert "p0.append(c1[mask])" in text
        assert "p1.append(c0[mask])" in text
        assert "\n  literals: lits[0] = 100\n" in text
        # Covered morsels run the same row kernel without the predicate.
        assert text.split("covered-morsel kernel (no predicate):")[1] \
            .count("rows.append(np.arange(base, end, dtype=np.int64))") == 1
        # No predicate: every decoded row, copied out of the buffer.
        bare = row_query(t).explain()
        assert "rows.append(np.arange(base, end, dtype=np.int64))" in bare
        assert "p0.append(c0.copy())" in bare

    @pytest.mark.parametrize("limit", [None, 4097])
    def test_width_swap_mid_query_runs_the_pinned_kernel(self, limit,
                                                        recompiles):
        # The first morsel runs the planned kernel, then a migration
        # widens ``p``: every later morsel pins the new generation and
        # runs the kernel compiled for it — once per execution.
        import dataclasses

        from repro.adapt import Configuration
        from repro.core.allocate import default_allocator
        from repro.live import LiveMigrator

        t, k, p = row_table(20, seed=6)
        plan = row_query(t, limit=limit).plan(morsel=4096)
        planned = plan.kernel
        ran = []

        def then_migrate(*args):
            out = planned.fn(*args)
            if not ran:
                migration = LiveMigrator(default_allocator()).migrate(
                    t["p"], Configuration(t["p"].placement, 40))
                assert migration.state == "completed"
            ran.append(1)
            return out

        plan.kernel = dataclasses.replace(planned, fn=then_migrate)
        result = plan.execute()
        assert ran == [1]
        assert recompiles == [{"p": 40, "k": 20}]
        assert_rows(result, np.ones(ROW_N, dtype=bool), {"p": p, "k": k},
                    limit)
