"""Tokenizer: kinds, positions, case rules, number forms, failures."""

import pytest

from repro.sql import SqlError, tokenize


def kinds(sql):
    return [t.kind for t in tokenize(sql)]


def texts(sql):
    return [t.text for t in tokenize(sql)]


class TestTokens:
    def test_simple_statement(self):
        toks = tokenize("SELECT sum(v) FROM t")
        assert [t.kind for t in toks] == [
            "keyword", "ident", "op", "ident", "op", "keyword",
            "ident", "end",
        ]
        assert toks[0].text == "select"  # keywords are lowered
        assert toks[1].text == "sum"

    def test_positions_are_char_offsets(self):
        toks = tokenize("SELECT v FROM t")
        assert [t.pos for t in toks] == [0, 7, 9, 14, 15]

    def test_keywords_case_insensitive(self):
        assert texts("select") == texts("SELECT") == texts("SeLeCt")

    def test_identifiers_case_sensitive(self):
        toks = tokenize("Amount amount")
        assert toks[0].text == "Amount"
        assert toks[1].text == "amount"

    def test_numbers_with_separators(self):
        toks = tokenize("1_000_000 42")
        assert toks[0].value == 1_000_000
        assert toks[1].value == 42

    def test_huge_number_survives(self):
        toks = tokenize(str(2 ** 64))
        assert toks[0].value == 2 ** 64

    def test_multi_char_ops_win(self):
        assert texts("a <= b >= c <> d != e == f")[1:10:2] == [
            "<=", ">=", "<>", "!=", "==",
        ]

    def test_minus_is_its_own_token(self):
        # the parser folds unary minus; the lexer must not.
        assert texts("-3")[:2] == ["-", "3"]

    def test_end_token_is_synthetic(self):
        toks = tokenize("v")
        assert toks[-1].kind == "end"
        assert toks[-1].pos == 1


class TestLexErrors:
    @pytest.mark.parametrize("bad", ["1__0", "1_"])
    def test_malformed_number(self, bad):
        with pytest.raises(SqlError, match="malformed number"):
            tokenize(f"SELECT v FROM t WHERE k > {bad}")

    def test_unexpected_character_positioned(self):
        sql = "SELECT v FROM t WHERE k ? 1"
        with pytest.raises(SqlError) as info:
            tokenize(sql)
        assert info.value.pos == sql.index("?")
        assert "unexpected character" in info.value.message

    @pytest.mark.parametrize("digits", ["²", "١٢", "٣"])
    def test_non_ascii_digits_are_positioned_parse_errors(self, digits):
        # int() accepts Unicode digits: "²" used to escape as a bare
        # ValueError and "١٢" to read silently as 12.
        sql = f"SELECT count(*) FROM t WHERE a >= {digits}"
        with pytest.raises(SqlError) as info:
            tokenize(sql)
        assert info.value.kind == "parse"
        assert info.value.pos == sql.index(digits)
        assert "non-ASCII digit" in info.value.message

    def test_non_ascii_digit_after_ascii_ones(self):
        sql = "SELECT v FROM t WHERE k > 12²"
        with pytest.raises(SqlError) as info:
            tokenize(sql)
        assert info.value.pos == sql.index("²")

    def test_unicode_letters_and_digits_inside_identifiers(self):
        # Only a *number* must be ASCII; identifiers keep any script.
        assert texts("é1 x² a١")[:3] == ["é1", "x²", "a١"]
        assert kinds("é1 x² a١")[:3] == ["ident"] * 3

    def test_error_renders_caret(self):
        with pytest.raises(SqlError) as info:
            tokenize("k @ 1")
        rendered = info.value.format()
        assert "k @ 1" in rendered
        assert rendered.splitlines()[-1] == "  ^"


class TestSqlErrorPositions:
    def test_line_and_column_multiline(self):
        sql = "SELECT v\nFROM t\nWHERE k @ 1"
        with pytest.raises(SqlError) as info:
            tokenize(sql)
        err = info.value
        assert (err.line, err.column) == (3, 9)
        assert str(err).startswith("parse error at 3:9:")
        assert err.context().splitlines() == ["WHERE k @ 1", "        ^"]

    def test_to_dict_shape(self):
        with pytest.raises(SqlError) as info:
            tokenize("k @ 1")
        d = info.value.to_dict()
        assert d["type"] == "parse"
        assert d["position"] == 2
        assert d["line"] == 1 and d["column"] == 3
        assert "^" in d["context"]

    def test_pos_clamped_into_statement(self):
        err = SqlError("x", "ab", 99)
        assert err.pos == 2
