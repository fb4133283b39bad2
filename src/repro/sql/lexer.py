"""SQL tokenizer with source positions: one compiled master pattern.

Produces a flat token list the recursive-descent parser walks.  Every
token records the character offset where it starts, which flows into
:class:`repro.sql.errors.SqlError` for caret-positioned diagnostics.

Keywords are case-insensitive; identifiers are case-sensitive (they
must match the catalog's column names exactly, which are plain Python
strings).  Numbers are non-negative decimal integers of any magnitude —
the uint64 clamping contract lives in ``repro.query.expr``, not here —
written in ASCII ``0-9`` with optional ``_`` digit separators; any other
Unicode digit is a positioned parse error, never a silently converted
value.  Unary minus is handled by the parser so boundary probes like
``ts >= -3`` lex as two tokens.

The same pass yields the statement's **shape key**: the token texts in
order with every number lifted out.  Two statements with one key differ
only in their numbers and whitespace, so the parser can reuse one parse
tree for both (see :func:`repro.sql.parser.parse`).  The key comes from
the lexer's own tokens, so it can never disagree with them.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Optional, Tuple

from .errors import SqlError

KEYWORDS = frozenset({
    "select", "from", "where", "group", "by",
    "and", "or", "not", "limit", "as",
})

#: Aggregate function names the parser recognises in a select list.
#: ``avg`` is accepted as a synonym for the engine's ``mean``.
AGGREGATES = frozenset({"count", "sum", "min", "max", "avg", "mean"})

#: One token per match, after its leading whitespace: a number (ASCII
#: digits only), a word (``\w`` — letters, digits, ``_`` in any script),
#: an operator (multi-character ones first so ``<=`` wins over ``<``),
#: or any other non-space character, which is an error.  Every non-space
#: character starts a match, so ``findall`` skips only trailing
#: whitespace.  :func:`scan` tells the kinds apart by first character.
_TOKEN_RE = re.compile(
    r"(\s*)([0-9][0-9_]*|\w+|<=|>=|<>|!=|==|[<>=+\-*(),;]|\S)"
)

_DIGITS = frozenset("0123456789")
_OPS = frozenset(("<=", ">=", "<>", "!=", "==", *"<>=+-*(),;"))

#: Stands in for every number in a shape key (no token text is ``None``).
_NUMBER = None

#: ``(kind, text, pos, value)`` — a :class:`Token`'s fields, as built by
#: the scan before any parser needs the named form.
RawToken = Tuple[str, str, int, int]

#: The literal-free key of a statement (see :func:`scan`).
ShapeKey = Tuple[Optional[str], ...]


class Token(NamedTuple):
    """One lexed token: ``kind`` is ``keyword``/``ident``/``number``/
    ``op``/``end``; ``pos`` is the 0-based offset of its first char."""

    kind: str
    text: str
    pos: int
    value: int = 0  # parsed magnitude, numbers only

    def __repr__(self) -> str:  # compact in parser error paths
        return f"{self.kind}:{self.text!r}@{self.pos}"


def scan(sql: str) -> Tuple[List[RawToken], ShapeKey]:
    """Lex ``sql`` into raw tokens (ending with a synthetic ``end``
    token) and its shape key: every token's text in order, numbers
    replaced by one placeholder, whitespace dropped.

    Raises :class:`SqlError` on characters outside the grammar.
    """
    tokens: List[RawToken] = []
    key: List[Optional[str]] = []
    pos = 0
    for space, text in _TOKEN_RE.findall(sql):
        pos += len(space)
        head = text[0]
        if head in _DIGITS:
            if text[-1] == "_" or "__" in text:
                raise SqlError(f"malformed number {text!r}", sql, pos)
            tokens.append(("number", text, pos, int(text.replace("_", ""))))
            key.append(_NUMBER)
        elif text in _OPS:
            tokens.append(("op", text, pos, 0))
            key.append(text)
        elif head.isalpha() or head == "_":
            lowered = text.lower()
            if lowered in KEYWORDS:
                tokens.append(("keyword", lowered, pos, 0))
                key.append(lowered)
            else:
                tokens.append(("ident", text, pos, 0))
                key.append(text)
        elif head.isalnum():
            # ``\w`` also matches non-ASCII digits; a word can only start
            # with one right where a number was expected.
            raise SqlError(
                f"non-ASCII digit {head!r} (numbers are written with 0-9)",
                sql, pos,
            )
        else:
            raise SqlError(f"unexpected character {head!r}", sql, pos)
        pos += len(text)
    tokens.append(("end", "", len(sql), 0))
    return tokens, tuple(key)


def tokenize(sql: str) -> List[Token]:
    """Lex ``sql`` into tokens, ending with a synthetic ``end`` token.

    Raises :class:`SqlError` on characters outside the grammar.
    """
    return [Token._make(raw) for raw in scan(sql)[0]]
