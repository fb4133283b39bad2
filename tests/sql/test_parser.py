"""Parser: grammar coverage, precedence shape, positioned rejections."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sql import SqlError, parse
from repro.sql.nodes import (
    AggItem,
    Binary,
    ColRef,
    ColumnItem,
    Number,
    Star,
    Unary,
)


class TestStatements:
    def test_minimal_projection(self):
        stmt = parse("SELECT v FROM t")
        assert stmt.table == "t"
        assert stmt.items == (ColumnItem("v", 7),)
        assert stmt.where is None and stmt.group_by is None
        assert stmt.limit is None

    def test_star(self):
        stmt = parse("SELECT * FROM t")
        assert isinstance(stmt.items[0], Star)

    def test_full_clause_chain(self):
        stmt = parse(
            "SELECT k, sum(v) FROM t WHERE k >= 2 GROUP BY k LIMIT 5;"
        )
        assert [type(i) for i in stmt.items] == [ColumnItem, AggItem]
        assert stmt.group_by.name == "k"
        assert stmt.limit.value == 5

    def test_trailing_semicolon_optional(self):
        assert parse("SELECT v FROM t;").table == "t"

    def test_keywords_any_case(self):
        stmt = parse("select SUM(v) from t where k < 9 group by k")
        assert stmt.group_by.name == "k"


class TestAggregates:
    def test_count_star_and_count_col_normalize(self):
        for sql in ("SELECT count(*) FROM t", "SELECT COUNT(v) FROM t",
                    "SELECT count() FROM t"):
            item = parse(sql).items[0]
            assert item.kind == "count"
            assert item.column is None  # no NULLs: count(x) == count(*)

    def test_avg_becomes_mean(self):
        assert parse("SELECT avg(v) FROM t").items[0].kind == "mean"

    def test_alias(self):
        item = parse("SELECT sum(v) AS total FROM t").items[0]
        assert item.alias == "total"

    def test_alias_on_plain_column_rejected(self):
        with pytest.raises(SqlError, match="only supported on aggregates"):
            parse("SELECT v AS x FROM t")

    def test_star_arg_only_for_count(self):
        with pytest.raises(SqlError, match=r"only count\(\*\) takes"):
            parse("SELECT sum(*) FROM t")

    def test_empty_args_need_count(self):
        with pytest.raises(SqlError, match="needs a column argument"):
            parse("SELECT min() FROM t")


class TestExpressions:
    def where(self, predicate):
        return parse(f"SELECT count(*) FROM t WHERE {predicate}").where

    def test_precedence_or_lowest(self):
        e = self.where("a < 1 AND b < 2 OR c < 3")
        assert isinstance(e, Binary) and e.op == "or"
        assert e.left.op == "and"

    def test_and_left_associates(self):
        e = self.where("a < 1 AND b < 2 AND c < 3")
        assert e.op == "and" and e.left.op == "and"

    def test_parens_override(self):
        e = self.where("a < 1 AND (b < 2 OR c < 3)")
        assert e.op == "and" and e.right.op == "or"

    def test_not_binds_tighter_than_and(self):
        e = self.where("NOT a < 1 AND b < 2")
        assert e.op == "and"
        assert isinstance(e.left, Unary) and e.left.op == "not"

    def test_mul_over_add_over_cmp(self):
        e = self.where("a + b * 2 < 10")
        assert e.op == "<"
        assert e.left.op == "+"
        assert e.left.right.op == "*"

    def test_unary_minus_folds_into_literal(self):
        e = self.where("k >= -3")
        assert isinstance(e.right, Number) and e.right.value == -3

    def test_equals_spellings(self):
        assert self.where("k = 1").op == "="
        assert self.where("k == 1").op == "=="
        assert self.where("k <> 1").op == "<>"

    def test_chained_comparison_rejected(self):
        with pytest.raises(SqlError, match="chained comparisons"):
            self.where("1 < k < 9")

    def test_unary_minus_on_column_rejected(self):
        with pytest.raises(SqlError, match="only supported on numeric"):
            self.where("-k < 1")


class TestParseErrors:
    @pytest.mark.parametrize("sql, fragment", [
        ("", "empty statement"),
        ("   ", "empty statement"),
        ("SELECT", "expected a column name or aggregate"),
        ("SELECT v", "expected FROM"),
        ("SELECT v FROM", "expected a table name"),
        ("FROM t SELECT v", "expected SELECT"),
        ("SELECT v FROM t WHERE", "expected an expression"),
        ("SELECT v FROM t GROUP k", "expected BY"),
        ("SELECT v FROM t LIMIT v", "expected a row count"),
        ("SELECT v FROM t extra", "unexpected trailing input"),
        ("SELECT sum(v FROM t", r"expected '\)'"),
    ])
    def test_rejections(self, sql, fragment):
        with pytest.raises(SqlError, match=fragment):
            parse(sql)

    def test_error_position_points_at_offender(self):
        sql = "SELECT v FROM t wat"
        with pytest.raises(SqlError) as info:
            parse(sql)
        assert info.value.pos == sql.index("wat")

    def test_end_of_input_position(self):
        sql = "SELECT v FROM"
        with pytest.raises(SqlError) as info:
            parse(sql)
        assert info.value.pos == len(sql)


@pytest.fixture
def memo(monkeypatch):
    """An empty parse memo, and a count of the parses it did not serve."""
    from collections import OrderedDict

    import repro.sql.parser as parser

    cache = OrderedDict()
    monkeypatch.setattr(parser, "_PARSE_CACHE", cache)
    misses = []
    real = parser._Parser.parse

    def counted(self):
        misses.append(self.sql)
        return real(self)

    monkeypatch.setattr(parser._Parser, "parse", counted)
    return cache, misses


def generator_statements():
    """The ``sql`` smartcheck profile's statements at seed 0."""
    from repro.check import generate_cases
    from repro.check.ops_query import _render_sql_op

    return [_render_sql_op(op.name, op.args, op.args[-1])
            for case in generate_cases(0, 400, profile="sql")
            for op in case.ops
            if op.name.startswith("sql_") and op.name != "sql_error"]


_IDENT = st.sampled_from(["c1", "c2", "é1", "é2", "k", "v"])
_NUMBER = st.one_of(
    st.integers(0, 2**70).map(str),
    st.sampled_from(["1000", "1_000", "0", "00", "1_0_0", "18446744073709551616"]),
)


@st.composite
def shaped_statements(draw):
    """Statements of a few shapes that differ in numbers, unary minus,
    spacing and identifier digits."""
    def num():
        text = draw(_NUMBER)
        return draw(st.sampled_from(["", "-", "- "])) + text

    def space():
        return draw(st.sampled_from([" ", "  ", "\n  "]))

    a, b = draw(_IDENT), draw(_IDENT)
    where = (f"{a} >={space()}{num()} AND {b} <{space()}{num()}"
             f" OR NOT {a} * {num()} + {b} <> {num()}")
    head = draw(st.sampled_from([
        f"SELECT count(*) AS {draw(_IDENT)}, sum({a})",
        f"SELECT {a}, {b}",
        f"select min({b}) as m{draw(st.integers(0, 12))}",
    ]))
    tail = draw(st.sampled_from(["", f" LIMIT {draw(_NUMBER)}", " ;"]))
    return f"{head}{space()}FROM t WHERE {where}{tail}"


class TestParseMemo:
    """``parse`` serves a repeated shape from its memo; what it serves
    must equal an uncached parse in every field, positions included."""

    def test_generator_statements_equal_uncached_parses(self, memo):
        from repro.sql.parser import _parse_uncached

        cache, misses = memo
        statements = generator_statements()
        served = [parse(sql) for sql in statements]
        # Most statements repeat a shape with new bounds: served.
        assert len(misses) == len(cache) < len(statements) // 4
        for sql, stmt in zip(statements, served):
            assert stmt == _parse_uncached(sql), sql

    @settings(max_examples=200, deadline=None)
    @given(st.lists(shaped_statements(), min_size=2, max_size=6))
    def test_served_trees_equal_uncached_parses(self, statements):
        from repro.sql.parser import _parse_uncached

        for sql in statements:
            served = parse(sql)
            assert served == _parse_uncached(sql), sql
            assert served.sql == sql

    @pytest.mark.parametrize("first, second", [
        ("SELECT sum(c1) FROM t WHERE c1 >= 5",
         "SELECT sum(c2) FROM t WHERE c2 >= 5"),
        ("SELECT sum(é1) FROM t WHERE é1 >= 5",
         "SELECT sum(é2) FROM t WHERE é2 >= 5"),
        ("SELECT count(*) AS n1 FROM t", "SELECT count(*) AS n2 FROM t"),
    ])
    def test_identifier_digits_are_not_numbers(self, memo, first, second):
        from repro.sql.parser import _parse_uncached

        cache, misses = memo
        parse(first)
        stmt = parse(second)
        assert len(misses) == len(cache) == 2
        assert stmt.items[0].column in (None, "c2", "é2")
        assert stmt == _parse_uncached(second)

    @pytest.mark.parametrize("first, second", [
        ("SELECT v FROM t WHERE k >= 1000", "SELECT v FROM t WHERE k >= 1_000"),
        ("SELECT v FROM t WHERE k >= 3", "SELECT v FROM t WHERE k >=   7"),
        ("SELECT v FROM t WHERE k >= -3", "SELECT v FROM t WHERE k >= - 30"),
        ("SELECT v FROM t LIMIT 5", "SELECT v\nFROM t LIMIT 500"),
    ])
    def test_numbers_and_spacing_share_a_shape(self, memo, first, second):
        from repro.sql.parser import _parse_uncached

        cache, misses = memo
        parse(first)
        stmt = parse(second)
        assert len(misses) == len(cache) == 1
        assert stmt == _parse_uncached(second)

    def test_unary_minus_is_part_of_the_shape(self, memo):
        cache, _ = memo
        assert self.bound(parse("SELECT v FROM t WHERE k >= 3")) == 3
        assert self.bound(parse("SELECT v FROM t WHERE k >= -3")) == -3
        assert len(cache) == 2

    @staticmethod
    def bound(stmt):
        return stmt.where.right.value

    def test_failed_parses_are_not_kept(self, memo):
        cache, _ = memo
        for _ in range(2):
            with pytest.raises(SqlError, match="expected a row count"):
                parse("SELECT v FROM t LIMIT v")
        assert not cache

    def test_cap_bounds_the_memo(self, memo):
        from repro.sql.parser import _PARSE_CACHE_CAP

        cache, _ = memo
        for i in range(_PARSE_CACHE_CAP + 10):
            parse(f"SELECT count(*) AS a{i} FROM t WHERE k >= {i}")
        assert len(cache) == _PARSE_CACHE_CAP
