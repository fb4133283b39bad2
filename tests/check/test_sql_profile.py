"""Tests for smartcheck's sql profile (the SQL-frontend PR's satellite).

The ``sql`` profile renders random SQL statements (surface style fuzzed:
keyword case, clause whitespace, trailing semicolons) next to their
directly-built fluent-``Query`` twins, requires the bound logical plans
to be *identical*, then pushes each statement through the full query
differential checks — oracle results, planner candidate chunks, exact
decode accounting.  A batch of
known-malformed statements must come back as positioned ``SqlError``\\ s.
"""

import pytest

from repro.check import generate_cases, make_case, run_check
from repro.check.generator import N_SQL_ERROR_TEMPLATES, N_SQL_STYLES
from repro.check.ops_query import _SQL_ERROR_TEMPLATES
from repro.check.runner import run_case
from repro.cli import main

SQL_OPS = {
    "sql_filter_sum", "sql_filter_count", "sql_and_count",
    "sql_or_select", "sql_group_sum", "sql_filter_minmax", "sql_error",
}


class TestAcceptance:
    def test_seed0_sql_profile_zero_divergences(self):
        report = run_check(seed=0, ops=400, profile="sql")
        assert report.ok, report.format()
        assert report.ops_run == 400
        assert "profile=sql" in report.format()
        # The fuzz reaches covered morsels at the CI op budget.
        assert report.covered_plans > 0

    @pytest.mark.parametrize("seed", [3, 11])
    def test_other_seeds_pass(self, seed):
        report = run_check(seed=seed, ops=150, profile="sql")
        assert report.ok, report.format()


class TestGenerator:
    def test_profile_deterministic(self):
        assert make_case(7, 3, profile="sql") == make_case(
            7, 3, profile="sql")

    def test_sql_profile_covers_every_sql_op(self):
        names = {
            op.name
            for case in generate_cases(0, 500, profile="sql")
            for op in case.ops
        }
        assert SQL_OPS <= names

    def test_style_space_exercised(self):
        styles = {
            op.args[-1]
            for case in generate_cases(0, 500, profile="sql")
            for op in case.ops
            if op.name.startswith("sql_") and op.name != "sql_error"
        }
        assert styles == set(range(N_SQL_STYLES))

    def test_error_templates_in_sync_with_runner(self):
        assert len(_SQL_ERROR_TEMPLATES) == N_SQL_ERROR_TEMPLATES

    def test_case_rerun_same_outcome(self):
        case = make_case(5, 2, profile="sql")
        assert run_case(case) is None
        assert run_case(case) is None


class TestPlantedBugs:
    def test_detects_binder_operator_swap(self, monkeypatch):
        # A binder that flips < to <= binds a *different* plan than the
        # fluent twin; the describe() identity check must flag it.
        import repro.sql.binder as binder

        swapped = dict(binder._CMP_MAP)
        swapped["<"] = "<="
        monkeypatch.setattr(binder, "_CMP_MAP", swapped)
        report = run_check(seed=0, ops=400, profile="sql",
                           max_failures=1)
        assert not report.ok
        assert report.failures[0].kind == "sql"

    def test_detects_parser_precedence_bug(self, monkeypatch):
        # Forcing AND to parse as OR builds the wrong tree; either the
        # plan identity or the oracle comparison must catch it.
        import repro.sql.parser as parser

        def broken_and_expr(self):
            left = self.not_expr()
            while self.at_keyword("and"):
                op = self.advance()
                from repro.sql.nodes import Binary
                left = Binary("or", left, self.not_expr(), op.pos)
            return left

        monkeypatch.setattr(parser._Parser, "and_expr", broken_and_expr)
        report = run_check(seed=0, ops=400, profile="sql",
                           max_failures=1)
        assert not report.ok
        assert report.failures[0].kind in ("sql", "result")

    def test_detects_error_swallowing(self, monkeypatch):
        # If compile_sql stops rejecting malformed statements the
        # sql_error ops must notice.
        import repro.check.ops_query as ops_query

        monkeypatch.setattr(
            ops_query, "_SQL_ERROR_TEMPLATES",
            ("SELECT count(*) FROM t",) * N_SQL_ERROR_TEMPLATES,
        )
        report = run_check(seed=0, ops=400, profile="sql",
                           max_failures=1)
        assert not report.ok
        assert report.failures[0].kind == "sql"
        assert "compiled without complaint" in report.failures[0].detail


class TestCli:
    def test_check_profile_flag(self, capsys):
        assert main(["check", "--seed", "0", "--ops", "120",
                     "--profile", "sql"]) == 0
        out = capsys.readouterr().out
        assert "profile=sql" in out
        assert "PASS" in out
