"""Tests for smartcheck's cluster profile (this PR's satellite).

The ``cluster`` profile shards every case's table across 1/2/4
simulated nodes (hash and range partitioning, replicas on and off by
case index), runs each generated query op through the distributed
scatter/gather executor, and proves three things at once: the result
is bit-identical to the NumPy oracle, bit-identical to the single-node
gather twin, and the ``cluster.bytes_shipped`` / ``cluster.rpcs``
registry deltas match the oracle's own frame-byte predictions exactly.
"""

import copy

import pytest

from repro.check import generate_cases, make_case, run_check
from repro.check.generator import (
    CLUSTER_MODES,
    CLUSTER_NODES,
    cluster_grid,
)
from repro.check.runner import run_case
from repro.cli import main

CLUSTER_OPS = {
    "cluster_filter_sum", "cluster_filter_count", "cluster_and_count",
    "cluster_or_select", "cluster_group_sum", "cluster_filter_minmax",
    "cluster_limit", "cluster_sql", "cluster_migrate_query",
}


class TestAcceptance:
    def test_seed0_cluster_profile_zero_divergences(self):
        report = run_check(seed=0, ops=400, profile="cluster")
        assert report.ok, report.format()
        assert report.ops_run == 400
        assert report.profile == "cluster"
        assert "profile=cluster" in report.format()
        # The fuzz reaches covered morsels at the CI op budget.
        assert report.covered_plans > 0

    @pytest.mark.parametrize("seed", [3, 11])
    def test_other_seeds_pass(self, seed):
        report = run_check(seed=seed, ops=150, profile="cluster")
        assert report.ok, report.format()

    def test_cluster_profile_covers_every_cluster_op(self):
        names = {
            op.name
            for case in generate_cases(0, 400, profile="cluster")
            for op in case.ops
        }
        assert CLUSTER_OPS <= names

    def test_grid_sweeps_nodes_modes_and_replicas(self):
        cases = list(generate_cases(0, 400, profile="cluster"))
        grid = {cluster_grid(case.index) for case in cases}
        assert {g[0] for g in grid} == set(CLUSTER_NODES)
        assert {g[1] for g in grid} == set(CLUSTER_MODES)
        assert {g[2] for g in grid} == {False, True}


class TestGenerator:
    def test_profile_recorded_and_deterministic(self):
        a = make_case(7, 3, profile="cluster")
        b = make_case(7, 3, profile="cluster")
        assert a == b
        assert a.profile == "cluster"
        assert a != make_case(7, 3, profile="query")

    def test_cluster_grid_is_total_and_stable(self):
        for index in range(24):
            n_nodes, mode, replicate = cluster_grid(index)
            assert n_nodes in CLUSTER_NODES
            assert mode in CLUSTER_MODES
            assert isinstance(replicate, bool)
            assert cluster_grid(index) == (n_nodes, mode, replicate)

    def test_case_rerun_same_outcome(self):
        case = make_case(5, 2, profile="cluster")
        assert run_case(case) is None
        assert run_case(case) is None


class TestPlantedBugs:
    def test_detects_lost_shard_partial(self, monkeypatch):
        # A gather that silently drops the last shard's partial result
        # merges too few rows/sums; the oracle comparison (or the
        # distributed-vs-twin diff) must flag it on any multi-shard
        # case, and the same case is clean once the merge is fixed.
        import repro.cluster.executor as executor

        orig = executor._merge

        def loses_last_partial(dplan, results, stats):
            if len(dplan.participants) > 1:
                dplan = copy.copy(dplan)
                dplan.participants = dplan.participants[:-1]
            return orig(dplan, results, stats)

        monkeypatch.setattr(executor, "_merge", loses_last_partial)
        report = run_check(seed=0, ops=400, profile="cluster",
                           max_failures=1)
        assert not report.ok
        assert report.failures[0].kind in ("result", "cluster")
        monkeypatch.setattr(executor, "_merge", orig)
        assert run_case(report.failures[0].case) is None

    def test_detects_unbilled_wire_bytes(self, monkeypatch):
        # An executor that ships results for free (forgets to bill the
        # result frame) leaves the registry short of the oracle's
        # frame-byte prediction; the exact accounting check catches it
        # even though every query result is still correct.
        import repro.cluster.executor as executor

        orig = executor.frame_bytes

        def plan_frames_only(payload):
            if payload.get("op") == "result":
                return 0
            return orig(payload)

        monkeypatch.setattr(executor, "frame_bytes", plan_frames_only)
        report = run_check(seed=0, ops=400, profile="cluster",
                           max_failures=1)
        assert not report.ok
        assert report.failures[0].kind == "cluster"
        monkeypatch.setattr(executor, "frame_bytes", orig)
        assert run_case(report.failures[0].case) is None

    def test_replay_line_names_profile(self, monkeypatch):
        import repro.cluster.executor as executor

        monkeypatch.setattr(executor, "frame_bytes", lambda payload: 0)
        report = run_check(seed=0, ops=400, profile="cluster",
                           max_failures=1)
        assert not report.ok
        assert "--profile cluster" in report.format()


class TestCli:
    def test_check_profile_flag(self, capsys):
        assert main(["check", "--seed", "0", "--ops", "120",
                     "--profile", "cluster"]) == 0
        out = capsys.readouterr().out
        assert "profile=cluster" in out
        assert "PASS" in out

    def test_cluster_demo_subcommand(self, capsys):
        assert main(["cluster", "--rows", "20000", "--nodes", "2"]) == 0
        out = capsys.readouterr().out
        assert "== distributed plan ==" in out
        assert "single-node gather twin: identical" in out
        assert "cluster.bytes_shipped{direction=plan,node=0}" in out
        assert "cluster.rpcs{node=1}" in out
