"""Tests for smartcheck's live-adaptation profile (the live sweep's CI
invariant).

The ``live`` profile interleaves scans, point reads, range queries, and
writes with injected online migrations — placement changes,
re-compression to randomized widths, budgeted stepping, concurrent
scans on another thread, and deliberately impossible narrowings that
must abort cleanly.  The array is compared bit-for-bit against the
NumPy oracle after every migration step, so a half-migrated generation
becoming observable shows up as a ``storage`` divergence with a
deterministic replay seed.
"""

import pytest

from repro.check import generate_cases, make_case, run_check
from repro.check.runner import run_case
from repro.cli import main
from repro.live.migrator import Migration

MIGRATE_OPS = {
    "migrate", "migrate_during_scan", "migrate_with_writes", "migrate_abort",
}


class TestAcceptance:
    def test_seed0_live_profile_zero_divergences(self):
        report = run_check(seed=0, ops=300, profile="live")
        assert report.ok, report.format()
        assert report.ops_run == 300
        assert report.profile == "live"

    @pytest.mark.parametrize("seed", [1, 2])
    def test_other_seeds_pass(self, seed):
        report = run_check(seed=seed, ops=150, profile="live")
        assert report.ok, report.format()


class TestGenerator:
    def test_live_profile_mixes_migrations_with_reads_and_writes(self):
        names = {
            op.name
            for case in generate_cases(0, 400, profile="live")
            for op in case.ops
        }
        assert names & MIGRATE_OPS
        assert "sum_range" in names
        assert "setitem" in names or "scatter" in names

    def test_profile_recorded_and_deterministic(self):
        a = make_case(9, 3, profile="live")
        b = make_case(9, 3, profile="live")
        assert a == b
        assert a.profile == "live"

    def test_case_rerun_same_outcome(self):
        case = make_case(4, 2, profile="live")
        assert run_case(case) is None
        assert run_case(case) is None


def _plant_early_swap(monkeypatch):
    # The canonical torn-migration bug: a repack migration commits the
    # new generation while its last two chunks are still uncopied, so
    # readers observe a half-migrated array.
    real = Migration._step_repack_locked

    def early_swap(self):
        real(self)
        if not self.done and self._total_chunks - self._next_chunk <= 2:
            self._commit_locked()

    monkeypatch.setattr(Migration, "_step_repack_locked", early_swap)


class TestPlantedBugs:
    def test_detects_early_generation_swap(self, monkeypatch):
        # The per-step storage check must catch the planted bug as a
        # divergence from the oracle.
        _plant_early_swap(monkeypatch)
        report = run_check(seed=0, ops=300, profile="live",
                           max_failures=1, shrink=False)
        assert not report.ok
        assert report.failures[0].kind == "storage"

    @pytest.mark.parametrize("mirror", ["mirror_scatter", "mirror_fill"])
    def test_detects_dropped_bulk_write_mirror(self, monkeypatch, mirror):
        # A scatter_many or fill that lands mid-migration must reach the
        # target generation too; dropped, the chunks already copied keep
        # their old values once the target commits.
        monkeypatch.setattr(Migration, mirror, lambda self, *args: None)
        report = run_check(seed=0, ops=300, profile="live",
                           max_failures=1, shrink=False)
        assert not report.ok
        assert report.failures[0].kind == "storage"

    def test_failure_replays_clean_after_unpatching(self, monkeypatch):
        _plant_early_swap(monkeypatch)
        report = run_check(seed=0, ops=300, profile="live",
                           max_failures=1, shrink=False)
        assert not report.ok
        monkeypatch.undo()
        assert run_case(report.failures[0].case) is None


class TestCli:
    def test_check_live_profile_flag(self, capsys):
        assert main(["check", "--seed", "0", "--ops", "120",
                     "--profile", "live"]) == 0
        out = capsys.readouterr().out
        assert "profile=live" in out
        assert "PASS" in out

    def test_live_demo_subcommand(self, capsys):
        assert main(["live", "--rows", "20000", "--ticks", "16"]) == 0
        out = capsys.readouterr().out
        assert "timeline" in out
        assert "migrate_done" in out
        assert "live.migrations_completed" in out
