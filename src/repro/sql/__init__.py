"""SQL frontend over the smart-array query engine.

A one-pattern tokenizer (:mod:`repro.sql.lexer`), recursive-descent
parser (:mod:`repro.sql.parser`) and binder (:mod:`repro.sql.binder`)
for a ``SELECT`` subset — projection, wrapping uint64 arithmetic,
comparisons, ``AND``/``OR``/``NOT``, ``WHERE``, ``GROUP BY``,
aggregates ``count``/``sum``/``min``/``max`` (plus ``avg``/``mean``),
``LIMIT`` — lowering to the existing :class:`repro.query.Query` logical
plans.  Entry point::

    from repro.sql import compile_sql

    q = compile_sql("SELECT SUM(amount) FROM events "
                    "WHERE ts >= 10000 AND ts < 20000",
                    {"events": table})
    result = q.run()

Because the binder emits the same expression constructors as the fluent
builder, a SQL statement and its fluent twin share one physical plan
and return bit-identical results.  All frontend failures raise
:class:`SqlError` with the offending source position.
"""

from .binder import bind, compile_sql, describe_sql
from .errors import SqlError
from .lexer import Token, tokenize
from .nodes import SelectStmt
from .parser import parse

__all__ = [
    "SqlError",
    "SelectStmt",
    "Token",
    "bind",
    "compile_sql",
    "describe_sql",
    "parse",
    "tokenize",
]
