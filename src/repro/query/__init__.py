"""Morsel-driven columnar query engine over smart tables.

The analytics layer the paper's smart arrays exist to serve: declare a
query over a :class:`~repro.core.table.SmartTable` with the fluent
:class:`Query` builder and the :func:`col`/:func:`lit` expression
handles, and the engine plans it (predicate pushdown into zone-map
chunk pruning, filter+aggregate fusion, per-column adaptive read
policy via the section-6 selector) and executes it morsel-driven on
the Callisto-style worker pool with socket-local replica reads.

    from repro.query import Query, col

    q = Query(table).where(col("k") >= 100).sum("v")
    print(q.explain())          # logical + physical plan, pruning counts
    result = q.run(pool=pool)   # morsel-parallel execution
    result.scalar(), result.stats.describe()
"""

from .codegen import CompiledKernel, compile_query
from .executor import QueryCancelled, QueryTimeout, execute
from .expr import (
    And,
    Arith,
    Col,
    Compare,
    Expr,
    Lit,
    Not,
    Or,
    U64_MAX,
    col,
    in_range,
    lit,
)
from .logical import AGG_KINDS, AggSpec, Query
from .planner import (
    ColumnDecision,
    DEFAULT_MORSEL_ELEMENTS,
    PhysicalPlan,
    PushedPredicate,
    plan_query,
)
from .stats import QueryResult, QueryStats

__all__ = [
    "AGG_KINDS",
    "AggSpec",
    "And",
    "Arith",
    "Col",
    "ColumnDecision",
    "Compare",
    "CompiledKernel",
    "DEFAULT_MORSEL_ELEMENTS",
    "Expr",
    "Lit",
    "Not",
    "Or",
    "PhysicalPlan",
    "PushedPredicate",
    "Query",
    "QueryCancelled",
    "QueryResult",
    "QueryStats",
    "QueryTimeout",
    "U64_MAX",
    "col",
    "compile_query",
    "execute",
    "in_range",
    "lit",
    "plan_query",
    "query_table",
]


def query_table(table) -> Query:
    """Convenience: start a fluent query over ``table``."""
    return Query(table)
