"""Tests for smartcheck's query-engine profile (PR 4's satellite).

The ``query`` profile drives the whole plan -> prune -> execute path
through the differential harness: two-column tables, zone-map builds,
fused filter+aggregate, AND/OR predicates, group-by, and row selection
are all checked against the NumPy oracle, including the planner's
candidate-chunk counts and both columns' decode accounting.
"""

from collections import OrderedDict

import numpy as np
import pytest

from repro.check import (
    BIT_WIDTHS,
    companion_bits,
    generate_cases,
    make_case,
    run_check,
)
from repro.check.runner import run_case
from repro.cli import main
from repro.core.zonemap import ZoneMap

QUERY_OPS = {
    "query_filter_sum", "query_filter_count", "query_and_count",
    "query_or_select", "query_group_sum", "query_filter_minmax",
}


class TestAcceptance:
    def test_seed0_query_profile_zero_divergences(self):
        report = run_check(seed=0, ops=400, profile="query")
        assert report.ok, report.format()
        assert report.ops_run == 400
        assert report.profile == "query"
        assert "profile=query" in report.format()

    def test_seed0_codegen_forced_on_passes(self):
        # Every query op runs its generated kernel — there is no other
        # path to force — checked against the oracle and the accounting
        # deltas at the CI query job's op budget, and some of its plans
        # run covered morsels through the predicate-free kernel.
        report = run_check(seed=0, ops=500, profile="query")
        assert report.ok, report.format()
        assert "codegen" not in report.format()
        assert report.covered_plans > 0
        assert (f"covered: {report.covered_plans} query plans had covered "
                f"morsels") in report.format()

    @pytest.mark.parametrize("seed", [3, 11])
    def test_other_seeds_pass(self, seed):
        report = run_check(seed=seed, ops=150, profile="query")
        assert report.ok, report.format()

    def test_mixed_profile_also_draws_query_ops(self):
        names = {
            op.name
            for case in generate_cases(0, 500, profile="mixed")
            for op in case.ops
        }
        assert names & QUERY_OPS

    def test_query_profile_covers_every_query_op(self):
        names = {
            op.name
            for case in generate_cases(0, 400, profile="query")
            for op in case.ops
        }
        assert QUERY_OPS <= names


class TestGenerator:
    def test_profile_recorded_and_deterministic(self):
        a = make_case(7, 3, profile="query")
        b = make_case(7, 3, profile="query")
        assert a == b
        assert a.profile == "query"
        assert a != make_case(7, 3, profile="mixed")

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            make_case(0, 0, profile="turbo")

    def test_companion_bits_stays_on_grid(self):
        for bits in BIT_WIDTHS:
            other = companion_bits(bits)
            assert other in BIT_WIDTHS
            assert other != bits

    def test_case_rerun_same_outcome(self):
        case = make_case(5, 2, profile="query")
        assert run_case(case) is None
        assert run_case(case) is None


class TestPlantedBugs:
    def test_detects_unsound_pruning(self, monkeypatch):
        # A pruner that drops one genuine candidate chunk silently
        # loses that chunk's rows and decodes too little; either the
        # result or the accounting comparison must catch it.
        orig = ZoneMap.candidate_chunks

        def drops_last(self, lo, hi):
            candidates = orig(self, lo, hi)
            return candidates[:-1] if candidates.size else candidates

        monkeypatch.setattr(ZoneMap, "candidate_chunks", drops_last)
        report = run_check(seed=0, ops=400, profile="query",
                           max_failures=1)
        assert not report.ok
        assert report.failures[0].kind in ("result", "accounting")

    def test_detects_lost_morsel_partial(self, monkeypatch):
        import repro.query.executor as executor

        orig = executor._merge_agg

        def drops_merge(into, other, specs):
            pass  # worker partials never reach the total

        monkeypatch.setattr(executor, "_merge_agg", drops_merge)
        report = run_check(seed=0, ops=400, profile="query",
                           max_failures=1)
        assert not report.ok
        assert report.failures[0].kind == "result"
        monkeypatch.setattr(executor, "_merge_agg", orig)
        assert run_case(report.failures[0].case) is None

    def test_detects_miscompiled_constant(self, monkeypatch):
        # A codegen bug that binds every literal off by one produces
        # kernels that disagree with the oracle; the result check must
        # flag it.
        import repro.query.codegen as codegen

        orig = codegen._literal_u64
        monkeypatch.setattr(
            codegen, "_literal_u64",
            lambda value, lits: orig((value + 1) % (1 << 64), lits),
        )
        report = run_check(seed=0, ops=400, profile="query",
                           max_failures=1)
        assert not report.ok
        assert report.failures[0].kind == "result"
        # The same case is clean once the compiler is fixed.
        monkeypatch.setattr(codegen, "_literal_u64", orig)
        assert run_case(report.failures[0].case) is None

    def test_forced_codegen_catches_miscompile_without_baseline(
            self, monkeypatch):
        # With no second execution path to diff against, the NumPy
        # oracle alone catches the wrong constants.
        import repro.query.codegen as codegen

        orig = codegen._literal_u64
        monkeypatch.setattr(
            codegen, "_literal_u64",
            lambda value, lits: orig((value + 1) % (1 << 64), lits),
        )
        report = run_check(seed=0, ops=400, profile="query",
                           max_failures=1)
        assert not report.ok
        assert report.failures[0].kind == "result"

    # The ids are the cases' stable names; each plants a different
    # truncation of a wide value's limbs.
    @pytest.mark.parametrize("truncate", [
        lambda limbs: limbs[:1],
        lambda limbs: limbs[1:] or limbs,
    ], ids=["both-codegen", "on-result"])
    def test_detects_miscompiled_group_sum(self, monkeypatch, truncate):
        # A grouped reduce that keeps only the low limb (or drops it) of
        # a wide sum still gets keys and counts right; only the group
        # *values* differ, and the oracle compare reports them.
        import repro.query.codegen as codegen

        orig = codegen._sum_limbs
        # group_fold memoizes per width specialization and the kernel
        # cache per shape: kernels built before the patch must not serve
        # it, nor a fold built from the patched limbs outlive it.
        monkeypatch.setattr(codegen, "_KERNEL_CACHE", OrderedDict())
        codegen.group_fold.cache_clear()
        monkeypatch.setattr(
            codegen, "_sum_limbs",
            lambda bits, max_elements: truncate(orig(bits, max_elements)),
        )
        try:
            report = run_check(seed=0, ops=400, profile="query",
                               max_failures=1)
        finally:
            codegen.group_fold.cache_clear()
            codegen._KERNEL_CACHE.clear()
        assert not report.ok
        failure = report.failures[0]
        assert failure.op.name == "query_group_sum"
        assert failure.kind == "result"
        monkeypatch.setattr(codegen, "_sum_limbs", orig)
        assert run_case(failure.case) is None

    def test_detects_reversed_group_key_order(self, monkeypatch):
        # Right keys, right values, wrong order: a dict ``==`` cannot
        # see it, the ordered item compare against the key-sorted
        # oracle must.
        import repro.query.executor as executor

        orig = executor.QueryResult

        def result(kind, stats, plan, groups=None, **kwargs):
            if groups is not None:
                groups = dict(reversed(list(groups.items())))
            return orig(kind, stats, plan, groups=groups, **kwargs)

        monkeypatch.setattr(executor, "QueryResult", result)
        report = run_check(seed=0, ops=400, profile="query",
                           max_failures=1)
        assert not report.ok
        failure = report.failures[0]
        assert failure.op.name == "query_group_sum"
        assert failure.kind == "result"
        monkeypatch.setattr(executor, "QueryResult", orig)
        assert run_case(failure.case) is None

    def test_detects_covering_a_chunk_whose_max_is_hi(self, monkeypatch):
        # Off by one in the covering proof (``max <= hi`` instead of
        # ``max < hi``): a covered morsel then counts rows equal to
        # ``hi`` without evaluating the predicate that excludes them.
        orig_run = ZoneMap.covered_run
        orig_compare = ZoneMap._compare_covered
        monkeypatch.setattr(ZoneMap, "covered_run",
                            lambda self, lo, hi: orig_run(self, lo, hi + 1))
        monkeypatch.setattr(ZoneMap, "_compare_covered",
                            lambda self, lo, hi: orig_compare(self, lo,
                                                              hi + 1))
        report = run_check(seed=0, ops=400, profile="query",
                           max_failures=1)
        assert not report.ok
        failure = report.failures[0]
        assert failure.kind == "result"
        monkeypatch.setattr(ZoneMap, "covered_run", orig_run)
        monkeypatch.setattr(ZoneMap, "_compare_covered", orig_compare)
        assert run_case(failure.case) is None

    def test_detects_billing_skipped_predicate_chunks(self, monkeypatch):
        # A covered morsel decodes only the columns it outputs; billing
        # the predicate-only columns too (as if every needed column were
        # decoded) must show as an accounting divergence.
        from repro.query.planner import PhysicalPlan

        monkeypatch.setattr(PhysicalPlan, "decoded_columns",
                            lambda self, covered: self.needed_columns)
        report = run_check(seed=0, ops=400, profile="query",
                           max_failures=1)
        assert not report.ok
        failure = report.failures[0]
        assert failure.kind == "accounting"
        assert "decoded_chunks" in failure.detail
        monkeypatch.undo()
        assert run_case(failure.case) is None

    def test_replay_line_names_profile(self, monkeypatch):
        import repro.query.executor as executor

        monkeypatch.setattr(executor, "_merge_agg",
                            lambda into, other, specs: None)
        report = run_check(seed=0, ops=400, profile="query",
                           max_failures=1)
        assert not report.ok
        assert "--profile query" in report.format()


class TestCli:
    def test_check_profile_flag(self, capsys):
        assert main(["check", "--seed", "0", "--ops", "120",
                     "--profile", "query"]) == 0
        out = capsys.readouterr().out
        assert "profile=query" in out
        assert "PASS" in out

    def test_query_demo_subcommand(self, capsys):
        assert main(["query", "--rows", "20000", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "== physical plan ==" in out
        assert "morsel-parallel run" in out
        assert "pushed-down predicates" in out
