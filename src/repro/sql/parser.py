"""Recursive-descent parser for the SELECT subset.

Grammar (keywords case-insensitive)::

    query      := SELECT select_list FROM ident
                  [WHERE or_expr] [GROUP BY ident] [LIMIT number] [';']
    select_list:= '*' | select_item (',' select_item)*
    select_item:= agg '(' ('*' | ident | ) ')' [AS ident]
                | ident
    or_expr    := and_expr (OR and_expr)*
    and_expr   := not_expr (AND not_expr)*
    not_expr   := NOT not_expr | comparison
    comparison := additive [cmp_op additive]        -- non-chaining
    additive   := term (('+' | '-') term)*
    term       := factor ('*' factor)*
    factor     := number | '-' number | ident | '(' or_expr ')'

Operator precedence therefore matches the fluent builder exactly:
``OR < AND < NOT < comparisons < + - < *``.  Chained comparisons
(``a < b < c``) are rejected with a positioned error rather than
silently associating.  Unary minus folds into the literal so boundary
probes like ``ts >= -3`` reach the binder as negative numbers, where
the engine's uint64 clamping contract applies.

**Parse once per shape.**  Every decision the grammar makes reads token
kinds and texts, never a number's value or a token's position, so two
statements with one shape key (:func:`repro.sql.lexer.scan`: the token
texts with numbers lifted out) parse to the same tree up to their
numbers and positions.  :func:`parse` keeps the tree of each recent
shape and answers a repeat by copying it with this statement's numbers,
positions and text substituted — field-for-field what the parser would
have built.  Only the syntax is memoized: binding against the live
catalog still happens per statement.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from .errors import SqlError
from .lexer import AGGREGATES, RawToken, ShapeKey, Token, scan
from .nodes import (
    AggItem,
    Binary,
    ColRef,
    ColumnItem,
    Expression,
    GroupBy,
    Limit,
    Number,
    SelectItem,
    SelectStmt,
    Star,
    Unary,
)

_CMP_OPS = frozenset(("<", "<=", ">", ">=", "=", "==", "!=", "<>"))


#: Statement shapes :func:`parse` keeps a tree for, least recently used
#: first.  A client can send unboundedly many shapes; past the cap the
#: least recently parsed one is dropped and parses afresh on return.
_PARSE_CACHE_CAP = 256

#: shape key -> (a statement's tree, ``{token position: token index}``
#: of that statement), least recently used first.
_PARSE_CACHE: "OrderedDict[ShapeKey, Tuple[SelectStmt, Dict[int, int]]]" \
    = OrderedDict()


class _Parser:
    def __init__(self, sql: str, tokens: List[Token]) -> None:
        self.sql = sql
        self.tokens = tokens
        self.i = 0

    # -- token helpers -------------------------------------------------
    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "end":
            self.i += 1
        return tok

    def error(self, message: str, tok: Optional[Token] = None) -> SqlError:
        tok = tok or self.peek()
        return SqlError(message, self.sql, tok.pos)

    def _describe(self, tok: Token) -> str:
        return "end of input" if tok.kind == "end" else repr(tok.text)

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != "keyword" or tok.text != word:
            raise self.error(
                f"expected {word.upper()}, found {self._describe(tok)}"
            )
        return self.advance()

    def expect_op(self, op: str) -> Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise self.error(
                f"expected {op!r}, found {self._describe(tok)}"
            )
        return self.advance()

    def expect_ident(self, what: str) -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.error(
                f"expected {what}, found {self._describe(tok)}"
            )
        return self.advance()

    def at_keyword(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == "keyword" and tok.text in words

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text in ops

    # -- grammar -------------------------------------------------------
    def parse(self) -> SelectStmt:
        select_tok = self.expect_keyword("select")
        items = self.select_list()
        self.expect_keyword("from")
        table_tok = self.expect_ident("a table name")
        where = group_by = limit = None
        if self.at_keyword("where"):
            self.advance()
            where = self.or_expr()
        if self.at_keyword("group"):
            self.advance()
            self.expect_keyword("by")
            key = self.expect_ident("a GROUP BY column")
            group_by = GroupBy(key.text, key.pos)
        if self.at_keyword("limit"):
            self.advance()
            num = self.peek()
            if num.kind != "number":
                raise self.error(
                    f"expected a row count after LIMIT, found "
                    f"{self._describe(num)}"
                )
            self.advance()
            limit = Limit(num.value, num.pos)
        if self.at_op(";"):
            self.advance()
        trailing = self.peek()
        if trailing.kind != "end":
            raise self.error(
                f"unexpected trailing input {self._describe(trailing)}",
                trailing,
            )
        return SelectStmt(
            items=tuple(items), table=table_tok.text,
            table_pos=table_tok.pos, sql=self.sql, where=where,
            group_by=group_by, limit=limit, pos=select_tok.pos,
            select_pos=select_tok.pos,
        )

    def select_list(self) -> List[SelectItem]:
        items: List[SelectItem] = [self.select_item()]
        while self.at_op(","):
            self.advance()
            items.append(self.select_item())
        return items

    def select_item(self) -> SelectItem:
        if self.at_op("*"):
            tok = self.advance()
            return Star(tok.pos)
        tok = self.peek()
        if (tok.kind == "ident" and tok.text.lower() in AGGREGATES
                and self.peek(1).kind == "op" and self.peek(1).text == "("):
            return self.agg_item()
        ident = self.expect_ident("a column name or aggregate")
        if self.at_keyword("as"):
            raise self.error(
                "AS is only supported on aggregates "
                "(projected columns keep their own names)"
            )
        return ColumnItem(ident.text, ident.pos)

    def agg_item(self) -> AggItem:
        func = self.advance()
        kind = func.text.lower()
        if kind == "avg":
            kind = "mean"
        self.expect_op("(")
        column: Optional[str] = None
        column_pos = -1
        if self.at_op("*"):
            star = self.advance()
            if kind != "count":
                raise self.error(
                    f"{func.text}(*) is not supported; "
                    f"only count(*) takes '*'", star,
                )
        elif not self.at_op(")"):
            col_tok = self.expect_ident(
                f"a column name inside {func.text}()"
            )
            column, column_pos = col_tok.text, col_tok.pos
        if column is None and kind != "count":
            raise self.error(
                f"{func.text}() needs a column argument", func
            )
        if kind == "count":
            # count(x) == count(*) here: smart arrays have no NULLs.
            column, column_pos = None, -1
        self.expect_op(")")
        alias = None
        if self.at_keyword("as"):
            self.advance()
            alias = self.expect_ident("an alias after AS").text
        return AggItem(kind, column, func.pos, alias=alias,
                       column_pos=column_pos)

    def or_expr(self) -> Expression:
        left = self.and_expr()
        while self.at_keyword("or"):
            op = self.advance()
            left = Binary("or", left, self.and_expr(), op.pos)
        return left

    def and_expr(self) -> Expression:
        left = self.not_expr()
        while self.at_keyword("and"):
            op = self.advance()
            left = Binary("and", left, self.not_expr(), op.pos)
        return left

    def not_expr(self) -> Expression:
        if self.at_keyword("not"):
            tok = self.advance()
            return Unary("not", self.not_expr(), tok.pos)
        return self.comparison()

    def comparison(self) -> Expression:
        left = self.additive()
        if self.at_op(*_CMP_OPS):
            op = self.advance()
            right = self.additive()
            if self.at_op(*_CMP_OPS):
                raise self.error(
                    "chained comparisons are not supported; "
                    "use AND to combine them"
                )
            return Binary(op.text, left, right, op.pos)
        return left

    def additive(self) -> Expression:
        left = self.term()
        while self.at_op("+", "-"):
            op = self.advance()
            left = Binary(op.text, left, self.term(), op.pos)
        return left

    def term(self) -> Expression:
        left = self.factor()
        while self.at_op("*"):
            op = self.advance()
            left = Binary("*", left, self.factor(), op.pos)
        return left

    def factor(self) -> Expression:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Number(tok.value, tok.pos)
        if tok.kind == "op" and tok.text == "-":
            minus = self.advance()
            num = self.peek()
            if num.kind != "number":
                raise self.error(
                    "unary '-' is only supported on numeric literals",
                    minus,
                )
            self.advance()
            return Number(-num.value, minus.pos)
        if tok.kind == "ident":
            self.advance()
            return ColRef(tok.text, tok.pos)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            inner = self.or_expr()
            self.expect_op(")")
            return inner
        raise self.error(
            f"expected an expression, found {self._describe(tok)}"
        )


def parse(sql: str) -> SelectStmt:
    """Parse one SELECT statement; raises :class:`SqlError` with the
    offending position on any syntax problem.

    A statement whose shape was parsed recently is not parsed again: the
    kept tree is copied with this statement's numbers, positions and
    text (see the module docstring).  The result is equal to
    :func:`_parse_uncached`'s in every field.
    """
    if not sql or not sql.strip():
        raise SqlError("empty statement", sql or "", 0)
    raw, key = scan(sql)
    entry = _PARSE_CACHE.get(key)
    if entry is not None:
        try:
            _PARSE_CACHE.move_to_end(key)
        except KeyError:  # evicted since the get
            pass
        return _substitute(entry, raw, sql)
    stmt = _Parser(sql, [Token._make(tok) for tok in raw]).parse()
    # No lock: racing parsers store equal trees; each step is one
    # atomic OrderedDict call, as in the kernel cache.
    _PARSE_CACHE[key] = (stmt, {tok[2]: i for i, tok in enumerate(raw)})
    while len(_PARSE_CACHE) > _PARSE_CACHE_CAP:
        try:
            _PARSE_CACHE.popitem(last=False)
        except KeyError:  # another parser emptied it first
            break
    return stmt


def _parse_uncached(sql: str) -> SelectStmt:
    """:func:`parse` without the shape memo: lex and parse afresh."""
    if not sql or not sql.strip():
        raise SqlError("empty statement", sql or "", 0)
    return _Parser(sql, [Token._make(tok) for tok in scan(sql)[0]]).parse()


def _substitute(entry: Tuple[SelectStmt, Dict[int, int]],
                raw: List[RawToken], sql: str) -> SelectStmt:
    """The kept tree of ``entry`` re-targeted at the statement ``sql``
    lexed to ``raw``: token ``i`` of the kept statement is token ``i``
    here, so each position maps through its token index, and each
    number is read from the token its node starts at (a ``-`` token
    means the negated number after it, as :meth:`_Parser.factor` folds
    it).  Nodes are immutable, so a subtree whose positions and numbers
    did not move is shared rather than copied."""
    stmt, index = entry

    def at(pos: int) -> int:
        return raw[index[pos]][2] if pos >= 0 else pos  # -1: count(*)

    def number(pos: int) -> int:
        i = index[pos]
        kind, _text, _pos, value = raw[i]
        return value if kind == "number" else -raw[i + 1][3]

    def expr(node: Expression) -> Expression:
        cls = type(node)
        pos = at(node.pos)
        if cls is Binary:
            left, right = expr(node.left), expr(node.right)
            if (pos == node.pos and left is node.left
                    and right is node.right):
                return node
            return Binary(node.op, left, right, pos)
        if cls is ColRef:
            return node if pos == node.pos else ColRef(node.name, pos)
        if cls is Number:
            value = number(node.pos)
            if pos == node.pos and value == node.value:
                return node
            return Number(value, pos)
        operand = expr(node.operand)
        if pos == node.pos and operand is node.operand:
            return node
        return Unary(node.op, operand, pos)

    def item(node: SelectItem) -> SelectItem:
        cls = type(node)
        pos = at(node.pos)
        if cls is AggItem:
            column_pos = at(node.column_pos)
            if pos == node.pos and column_pos == node.column_pos:
                return node
            return AggItem(node.kind, node.column, pos, alias=node.alias,
                           column_pos=column_pos)
        if pos == node.pos:
            return node
        return (ColumnItem(node.name, pos) if cls is ColumnItem
                else Star(pos))

    items = tuple(map(item, stmt.items))
    group_by, limit = stmt.group_by, stmt.limit
    if group_by is not None and at(group_by.pos) != group_by.pos:
        group_by = GroupBy(group_by.name, at(group_by.pos))
    if limit is not None:
        limit = Limit(number(limit.pos), at(limit.pos))
    return SelectStmt(
        items=items, table=stmt.table, table_pos=at(stmt.table_pos),
        sql=sql, where=None if stmt.where is None else expr(stmt.where),
        group_by=group_by, limit=limit,
        pos=at(stmt.pos), select_pos=at(stmt.select_pos),
    )
