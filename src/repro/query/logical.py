"""Logical query plans over :class:`~repro.core.table.SmartTable`.

A :class:`Query` is a fluent builder that accumulates logical operators
— scan, filter, project, aggregate, group-by, limit — and hands the
finished shape to the planner (:mod:`repro.query.planner`) when asked
to :meth:`~Query.run` or :meth:`~Query.explain`.  The logical layer is
deliberately declarative: it records *what* the query computes; every
physical choice (predicate pushdown, zone-map pruning, morsel size,
replica selection, parallelism) belongs to the planner and executor.

Two query shapes exist, mirroring the analytics the paper measures:

* **row queries** — ``select``/``limit`` pipelines producing matching
  row indices and (optionally) projected column values;
* **aggregate queries** — ``sum``/``count``/``min``/``max``/``mean``
  (optionally per ``group_by`` key), fused with the filter into a
  single scan: no index list is ever materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.table import SmartTable
from .expr import And, Expr, _check_bool_sort

#: Aggregate kinds the executor implements single-pass.
AGG_KINDS = ("sum", "count", "min", "max", "mean")


@dataclass(frozen=True)
class AggSpec:
    """One aggregate output: ``kind(column)`` under an output name."""

    kind: str
    column: Optional[str]
    name: str

    def __post_init__(self) -> None:
        if self.kind not in AGG_KINDS:
            raise ValueError(
                f"aggregate kind must be one of {AGG_KINDS}, got {self.kind!r}"
            )
        if self.kind == "count":
            if self.column is not None:
                raise ValueError("count() takes no column")
        elif self.column is None:
            raise ValueError(f"{self.kind}() needs a column")

    def describe(self) -> str:
        return f"{self.kind}({self.column or '*'})"


class Query:
    """Fluent logical-plan builder over one smart table.

    Builder methods return ``self`` so shapes read as pipelines::

        Query(t).where(col("k") >= 100).sum("v").run()
        Query(t).where(pred).select("k", "v").limit(10).run()
        Query(t).group_by("region").sum("sales").run()
    """

    def __init__(self, table: SmartTable) -> None:
        self.table = table
        self.predicate: Optional[Expr] = None
        self.aggregates: List[AggSpec] = []
        self.group_key: Optional[str] = None
        self.projection: Optional[Tuple[str, ...]] = None
        self.limit_rows: Optional[int] = None

    # -- filter ------------------------------------------------------------

    def where(self, predicate: Expr) -> "Query":
        """AND another predicate onto the filter."""
        _check_bool_sort(predicate, "where()")
        for name in predicate.columns():
            self.table.column(name)  # fail fast on unknown columns
        self.predicate = (
            predicate if self.predicate is None
            else And(self.predicate, predicate)
        )
        return self

    filter = where

    # -- aggregation --------------------------------------------------------

    def aggregate(self, *specs: Tuple[str, Optional[str]]) -> "Query":
        """Add ``(kind, column)`` aggregates, e.g. ``("sum", "v")``."""
        for kind, column in specs:
            if column is not None:
                self.table.column(column)
            spec = AggSpec(kind, column,
                           f"{kind}({column})" if column else "count(*)")
            self.aggregates.append(spec)
        return self

    def sum(self, column: str) -> "Query":
        return self.aggregate(("sum", column))

    def count(self) -> "Query":
        return self.aggregate(("count", None))

    def min(self, column: str) -> "Query":
        return self.aggregate(("min", column))

    def max(self, column: str) -> "Query":
        return self.aggregate(("max", column))

    def mean(self, column: str) -> "Query":
        return self.aggregate(("mean", column))

    def group_by(self, key: str) -> "Query":
        self.table.column(key)
        if self.group_key is not None:
            raise ValueError("only one group_by key is supported")
        self.group_key = key
        return self

    # -- row-selection ------------------------------------------------------

    def select(self, *names: str) -> "Query":
        """Project columns for a row query (values are materialized for
        matching rows only)."""
        for name in names:
            self.table.column(name)
        self.projection = tuple(names)
        return self

    def limit(self, n: int) -> "Query":
        if n < 0:
            raise ValueError(f"limit must be >= 0, got {n}")
        self.limit_rows = int(n)
        return self

    # -- shape --------------------------------------------------------------

    @property
    def is_aggregate(self) -> bool:
        return bool(self.aggregates)

    def validate(self) -> None:
        if self.group_key is not None and not self.aggregates:
            raise ValueError("group_by() requires at least one aggregate")
        if self.aggregates and self.projection is not None:
            raise ValueError(
                "a query is either an aggregation or a row selection, "
                "not both (drop select() or the aggregates)"
            )
        if self.aggregates and self.limit_rows is not None:
            raise ValueError("limit() applies to row queries only")

    def describe(self) -> str:
        """The logical plan, one operator per line (innermost first)."""
        self.validate()
        lines = [f"scan {self.table.n_rows:,} rows "
                 f"x {len(self.table.column_names)} columns"]
        if self.predicate is not None:
            lines.append(f"filter {self.predicate.describe()}")
        if self.group_key is not None:
            lines.append(f"group_by {self.group_key}")
        if self.aggregates:
            lines.append(
                "aggregate " + ", ".join(a.describe() for a in self.aggregates)
            )
        if self.projection is not None:
            lines.append("project " + ", ".join(self.projection))
        if self.limit_rows is not None:
            lines.append(f"limit {self.limit_rows}")
        return "\n".join(lines)

    # -- execution handoff ---------------------------------------------------

    def plan(self, **knobs) -> "PhysicalPlan":  # noqa: F821
        # Distributed dispatch: a table that knows how to fan out (a
        # repro.cluster ShardedTable) plans itself — fluent and
        # SQL-bound queries scatter/gather transparently.
        hook = getattr(self.table, "distributed_plan", None)
        if hook is not None:
            return hook(self, **knobs)
        from .planner import plan_query

        return plan_query(self, **knobs)

    def explain(self, **knobs) -> str:
        """The physical plan as text, without executing."""
        return self.plan(**knobs).explain()

    def run(self, pool=None, cancel=None, timeout_s: Optional[float] = None,
            **knobs) -> "QueryResult":  # noqa: F821
        """Plan and execute; see :func:`repro.query.executor.execute`.

        ``cancel`` (a :class:`threading.Event`) and ``timeout_s`` bound
        the run cooperatively at morsel boundaries, raising
        :class:`~repro.query.executor.QueryCancelled` /
        :class:`~repro.query.executor.QueryTimeout`.
        """
        return self.plan(pool=pool, **knobs).execute(
            pool=pool, cancel=cancel,
            timeout_s=timeout_s,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Query\n  " + "\n  ".join(self.describe().splitlines()) + ">"
