"""End-to-end tests for the smartcheck differential harness.

Covers: the acceptance run (seed 0, 500 ops, full grid, zero
divergences), deterministic replay, planted-bug detection for each
divergence kind, shrinking to minimal repros, and the CLI subcommand.
"""

import numpy as np
import pytest

import repro.core.scan_ops as scan_ops
from repro.check import (
    BIT_WIDTHS,
    PLACEMENTS,
    generate_cases,
    make_case,
    run_check,
    shrink_case,
)
from repro.check.runner import run_case
from repro.cli import main
from repro.core import bitpack
from repro.core.smart_array import SmartArray


class TestAcceptance:
    def test_seed0_500_ops_zero_divergences(self):
        report = run_check(seed=0, ops=500)
        assert report.ok, report.format()
        # The acceptance grid: >= 4 placements x >= 8 bit widths,
        # including the 1/32/63/64 boundary widths.
        assert report.placements_seen == set(PLACEMENTS)
        assert report.bit_widths_seen == set(BIT_WIDTHS)
        assert {1, 32, 63, 64} <= report.bit_widths_seen
        assert report.pool_modes_seen == {"serial", "threads"}
        assert report.ops_run == 500

    @pytest.mark.parametrize("seed", [1, 7])
    def test_other_seeds_pass(self, seed):
        report = run_check(seed=seed, ops=200)
        assert report.ok, report.format()


class TestDeterminism:
    def test_cases_replay_identically(self):
        first = list(generate_cases(3, 150))
        second = list(generate_cases(3, 150))
        assert first == second

    def test_make_case_pure(self):
        assert make_case(5, 11) == make_case(5, 11)

    def test_case_rerun_same_outcome(self):
        for case in list(generate_cases(0, 60)):
            assert run_case(case) is None
            assert run_case(case) is None


class TestPlantedBugs:
    """The harness must rediscover each fixed bug when it is re-planted."""

    def test_detects_uint64_overflow(self, monkeypatch):
        orig = scan_ops.count_in_range

        def buggy(array, lo, hi):
            if hi <= 0 or lo >= hi:
                return 0
            np.uint64(max(hi, 0))  # pre-fix conversion: overflows
            return orig(array, lo, hi)

        monkeypatch.setattr(scan_ops, "count_in_range", buggy)
        report = run_check(seed=0, ops=500, max_failures=1)
        assert not report.ok
        failure = report.failures[0]
        assert failure.kind == "exception"
        assert "OverflowError" in failure.detail
        # Shrunk to (at most) a fill plus the failing scan.
        assert len(failure.case.ops) <= 2

    def test_detects_wrong_result(self, monkeypatch):
        orig = scan_ops.count_equal

        def off_by_one(array, value):
            return orig(array, value) + 1

        monkeypatch.setattr(scan_ops, "count_equal", off_by_one)
        report = run_check(seed=0, ops=500, max_failures=1)
        assert not report.ok
        assert report.failures[0].kind == "result"

    def test_detects_replica_skew(self, monkeypatch):
        scatter_many = SmartArray.scatter_many

        def first_replica_only(self, indices, values):
            # The write and its zone-map upkeep land; every replica but
            # the first keeps its old words.
            others = [buf.copy() for buf in self.allocation.buffers[1:]]
            scatter_many(self, indices, values)
            for buf, old in zip(self.allocation.buffers[1:], others):
                buf[:] = old

        monkeypatch.setattr(SmartArray, "scatter_many", first_replica_only)
        report = run_check(seed=0, ops=500, max_failures=1)
        assert not report.ok
        assert report.failures[0].kind in ("storage", "result")

    def test_detects_accounting_regression(self, monkeypatch):
        # Re-plant the redundant scalar unpack the fixed take() removed:
        # an extra unpack after every bulk take.
        from repro.core.iterators import CompressedIterator

        orig_take = CompressedIterator.take

        def wasteful_take(self, n):
            out = orig_take(self, n)
            if out.size and self.index < self.array.length:
                self.array.unpack(
                    self.index // bitpack.CHUNK_ELEMENTS,
                    replica=self.replica, out=self._buffer)
            return out

        monkeypatch.setattr(CompressedIterator, "take", wasteful_take)
        report = run_check(seed=0, ops=500, max_failures=1)
        assert not report.ok
        assert report.failures[0].kind == "accounting"

    def test_shrunk_repro_replays(self, monkeypatch):
        orig = scan_ops.count_equal

        def off_by_one(array, value):
            return orig(array, value) + 1

        monkeypatch.setattr(scan_ops, "count_equal", off_by_one)
        report = run_check(seed=0, ops=500, max_failures=1)
        shrunk_case = report.failures[0].case
        # Deterministic replay: the shrunk sequence fails the same way
        # on every run.
        for _ in range(3):
            failure = run_case(shrunk_case)
            assert failure is not None
            assert failure.kind == "result"
        # And shrinking is idempotent.
        assert shrink_case(shrunk_case).ops == shrunk_case.ops


class TestCli:
    def test_check_subcommand_passes(self, capsys):
        rc = main(["check", "--seed", "0", "--ops", "120"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS: zero oracle divergences" in out
        assert "seed=0" in out

    def test_check_subcommand_fails_nonzero(self, capsys, monkeypatch):
        orig = scan_ops.count_equal
        monkeypatch.setattr(
            scan_ops, "count_equal", lambda a, v: orig(a, v) + 1)
        with pytest.raises(SystemExit) as exc:
            main(["check", "--seed", "0", "--ops", "500"])
        assert "FAIL" in str(exc.value)
        assert "replay: python -m repro check --seed 0" in str(exc.value)
