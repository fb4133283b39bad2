"""Query and SQL ops: the query engine and the SQL frontend against the
oracle.

Every query op names a *shape* — a predicate of ``in_range`` leaves
over the table's ``k``/``v`` columns plus its aggregates or projection
— and :func:`query_shape` is the one place a shape is spelled out.
From it come the fluent query, the oracle's row mask and answer
(:func:`~repro.check.oracle.expected_result`) and the zone-map
prediction.  A ``sql_*`` op renders its shape as SQL text, requires the
bound plan to be identical to the fluent twin's and runs the bound
query through the same checks as ``query_*``; the cluster ops
(:mod:`~repro.check.ops_cluster`) reuse the shapes too.
"""

from __future__ import annotations

import operator
from functools import reduce
from typing import Callable, Dict, NamedTuple, Tuple

import numpy as np

from ..core import native
from ..query import Query, in_range
from ..query.executor import execute_reference
from ..sql import SqlError, bind, compile_sql, parse
from ..sql.nodes import SelectStmt
from ..sql.parser import _parse_uncached
from . import oracle as orc
from .runner import Divergence, fmt

#: Aggregates or projection per shape (an op name minus its family
#: prefix; ``query_count`` is the codec profile's filtered count).
_FINISH: Dict[str, Callable[[Query], Query]] = {
    "filter_sum": lambda q: q.sum("v"),
    "filter_count": lambda q: q.count(),
    "query_count": lambda q: q.count(),
    "filter_minmax": lambda q: q.min("v").max("v"),
    "key_sum": lambda q: q.sum("k"),
    "and_count": lambda q: q.count(),
    "or_select": lambda q: q.select("v"),
    "group_sum": lambda q: q.group_by("k").sum("v"),
}


class Shape(NamedTuple):
    """One query shape, independent of the table it runs on."""

    finish: Callable[[Query], Query]
    #: ``(column, lo, hi)`` ``in_range`` leaves of the predicate.
    ranges: Tuple[Tuple[str, int, int], ...]
    #: Leaves combine by OR (else AND).
    union: bool = False

    @property
    def columns(self) -> frozenset:
        return frozenset(column for column, _, _ in self.ranges)

    def query(self, table) -> Query:
        q = Query(table)
        if self.ranges:
            q = q.where(reduce(
                operator.or_ if self.union else operator.and_,
                [in_range(*leaf) for leaf in self.ranges]))
        return self.finish(q)

    def mask(self, columns: Dict[str, np.ndarray]) -> np.ndarray:
        """The oracle's matching rows over plain ``uint64`` columns."""
        if not self.ranges:
            return np.ones(columns["k"].size, dtype=bool)
        return reduce(np.logical_or if self.union else np.logical_and,
                      [orc.range_mask(columns[column], lo, hi)
                       for column, lo, hi in self.ranges])


def query_shape(name: str, args) -> Shape:
    """The shape of query op ``name`` from its leading arguments."""
    shape = name.partition("_")[2]
    if shape in ("and_count", "or_select"):
        lo1, hi1, lo2, hi2 = args[:4]
        ranges = (("k", lo1, hi1), ("v", lo2, hi2))
    elif shape == "group_sum":
        ranges = ()
    else:
        ranges = (("k", args[0], args[1]),)
    return Shape(_FINISH[shape], ranges, shape == "or_select")


class Zones(NamedTuple):
    """Per-chunk zone-map facts the oracle predicts a query's plan from."""

    candidates: np.ndarray  # bool per chunk
    covered: np.ndarray  # bool per chunk: every row matches
    filtered: frozenset  # columns the predicate reads


def _range_zones(oracle: orc.OracleArray, lo: int, hi: int):
    """``(candidate, covered)`` chunk masks of ``in_range(lo, hi)``: its
    ``>= lo`` and ``< hi`` leaves, intersected as the planner does."""
    return (oracle.zonemap_candidate_mask(lo, 1 << 64)
            & oracle.zonemap_candidate_mask(0, hi),
            oracle.zonemap_covered_mask(lo, 1 << 64)
            & oracle.zonemap_covered_mask(0, hi))


def shape_zones(shape: Shape, n_chunks: int,
                oracles: Dict[str, orc.OracleArray]) -> Zones:
    """Candidate and covered chunks the planner must arrive at for
    ``shape``, predicted from the true per-chunk min/max of the columns
    that have zone maps (``oracles``).

    Leaf masks intersect under AND and union under OR.  A leaf on a
    column without a zone map prunes nothing and covers nothing; under
    OR it leaves the whole predicate unprunable, and a plan that cannot
    prune covers nothing.  No predicate: every chunk a candidate, and
    every row matches.
    """
    everything = np.ones(n_chunks, dtype=bool)
    if not shape.ranges:
        return Zones(everything, everything, frozenset())
    mapped = [_range_zones(oracles[column], lo, hi)
              for column, lo, hi in shape.ranges if column in oracles]
    if not mapped or (shape.union and len(mapped) < len(shape.ranges)):
        return Zones(everything, ~everything, shape.columns)
    combine = np.logical_or if shape.union else np.logical_and
    candidates = reduce(combine, [c for c, _ in mapped])
    covered = (reduce(combine, [c for _, c in mapped])
               if len(mapped) == len(shape.ranges) else ~everything)
    return Zones(candidates, covered, shape.columns)


def synopsis_ready(query: Query, zone_widths: Dict[str, int]) -> bool:
    """Whether chunk synopses answer ``query``'s covered chunks: an
    ungrouped aggregate whose every aggregated column has a zone map
    (``zone_widths``: mapped column -> its zone width) that keeps chunk
    sums where a ``sum`` or ``mean`` needs them (at most
    :data:`~repro.check.oracle.SUM_BITS` wide)."""
    if not query.aggregates or query.group_key is not None:
        return False
    for spec in query.aggregates:
        if spec.column is None:
            continue
        width = zone_widths.get(spec.column)
        if width is None or (spec.kind in ("sum", "mean")
                             and width > orc.SUM_BITS):
            return False
    return True


class Decode(NamedTuple):
    """What a query's run must decode, as the oracle predicts it."""

    candidates: int  # candidate chunks of the plan
    covered: int  # covered morsels
    decoded: Dict[str, int]  # chunks decoded per needed column
    synopsis: int  # covered chunks the synopses answer


def predict_decode(query: Query, zones: Zones, superchunk: int,
                   synopsis: bool) -> Decode:
    """What ``query`` run at ``superchunk``-element morsels decodes;
    ``synopsis``: chunk synopses answer it (:func:`synopsis_ready`).

    A morsel is covered when it has a candidate chunk and every one of
    them is covered.  With synopses every covered candidate chunk is
    answered by them and the kernel decodes the others; without, a
    covered morsel's predicate-free kernel decodes its candidates for
    the output columns only, and every other morsel's kernel decodes
    its candidates for every needed column.  Either way a morsel whose
    chunks to decode fragment decodes their hull
    (:func:`~repro.check.oracle.hull_decoded`), and a covered chunk
    inside a hull is not answered by its synopsis.  A predicate-free
    query's synopses answer every chunk.
    """
    per_morsel = superchunk // orc.CHUNK
    candidates, covered = zones.candidates, zones.covered & zones.candidates
    chunks = int(candidates.sum())
    outputs = {query.group_key, *(query.projection or ())}
    outputs.update(spec.column for spec in query.aggregates)
    needed = zones.filtered | (outputs - {None})
    if not zones.filtered:
        decoded = 0 if synopsis else chunks
        return Decode(chunks, 0, {name: decoded for name in needed},
                      chunks - decoded)
    n_morsels = -(-candidates.size // per_morsel)

    def by_morsel(mask: np.ndarray) -> np.ndarray:
        padded = np.zeros(n_morsels * per_morsel, dtype=bool)
        padded[:mask.size] = mask
        return padded.reshape(n_morsels, per_morsel)

    covered_morsels = (by_morsel(candidates).any(axis=1)
                       & ~by_morsel(candidates & ~covered).any(axis=1))
    n_covered = int(covered_morsels.sum())
    if synopsis:
        kernel = orc.hull_decoded(candidates & ~covered, per_morsel)
        n = int(kernel.sum())
        return Decode(chunks, n_covered, {name: n for name in needed},
                      int((covered & ~kernel).sum()))
    in_covered = np.repeat(covered_morsels, per_morsel)[:candidates.size]
    n = int(orc.hull_decoded(candidates & ~in_covered, per_morsel).sum())
    skipped = int((candidates & in_covered).sum())
    return Decode(chunks, n_covered,
                  {name: n + (skipped if name in outputs else 0)
                   for name in needed}, 0)


def compare_result(r, what: str, result, expected) -> None:
    """A query result against the oracle's ``(kind, payload)``; group
    results as ordered item lists against the key-sorted expectation,
    so key order counts too."""
    kind, payload = expected
    if result.kind != kind:
        raise Divergence("result", f"{what}: result kind {result.kind!r}, "
                                   f"expected {kind!r}")
    if kind == "aggregate":
        r.compare(list(result.aggregates.items()), list(payload.items()),
                  what)
    elif kind == "groups":
        r.compare(list(result.groups.items()), sorted(payload.items()),
                  what)
    else:
        rows, columns = payload
        r.compare(result.rows, rows, f"{what}.rows")
        for name, values in columns.items():
            r.compare(result.columns[name], values, f"{what}.{name}")


def native_reference(plan, pool=None):
    """``plan`` run on its NumPy kernels when some kernel of it has a
    native twin the native scans would run; else ``None``."""
    kernels = (plan.kernel, plan.covered_kernel)
    if native.LIB is None or not any(
            kernel is not None and kernel.native is not None
            for kernel in kernels):
        return None
    return execute_reference(plan, pool)


def check_native_twin(what: str, result, reference) -> None:
    """``result`` (native lowering where it applied) against the NumPy
    ``reference`` run of the same plan: same answer, same rows scanned
    and matched, same chunks decoded per column."""
    for field in ("aggregates", "groups"):
        if getattr(result, field) != getattr(reference, field):
            raise Divergence(
                "native",
                f"{what}: native {field} {fmt(getattr(result, field))} != "
                f"NumPy {fmt(getattr(reference, field))}")
    got, want = ((r.stats.rows_scanned, r.stats.rows_matched,
                  r.stats.decoded_chunks) for r in (result, reference))
    if got != want:
        raise Divergence(
            "native",
            f"{what}: native (rows scanned, matched, decoded chunks) = "
            f"{got}, NumPy {want}")


def _check_query(r, op, query: Query, shape: Shape, par: int) -> None:
    """Run ``query`` and check result, plan, and decode accounting.

    The result must equal the oracle's, and the plan's candidate
    chunks, the covered morsels, and every needed column's decoded and
    synopsis-answered chunks must equal the oracle's prediction
    (:func:`predict_decode`).
    """
    spec = r.spec
    columns = {"k": r.oracle.values, "v": r.oracle_v.values}
    expected = orc.expected_result(query, columns, shape.mask(columns))
    zones = shape_zones(shape, orc.chunks_for(spec.length),
                        {"k": r.oracle, "v": r.oracle_v})
    pool = r.pool() if par else None
    # With the native scans loaded, the NumPy reference kernels run the
    # same plan first (outside the accounted window): the oracle checks
    # the reference, and the native lowering must equal it.
    reference = native_reference(query.plan(pool=pool,
                                            morsel=spec.superchunk), pool)
    before = r.snapshot()
    result = query.run(pool=pool, morsel=spec.superchunk)
    if reference is not None:
        compare_result(r, op.name, reference, expected)
        check_native_twin(op.name, result, reference)
    compare_result(r, op.name, result, expected)
    chunks, covered, decoded, answered = predict_decode(
        query, zones, spec.superchunk,
        spec.length > 0 and synopsis_ready(
            query, {"k": orc.bits_needed(r.oracle.values),
                    "v": orc.bits_needed(r.oracle_v.values)}))
    plan = result.plan
    if plan.chunks_candidate != chunks:
        raise Divergence(
            "result",
            f"{op.name}: plan kept {plan.chunks_candidate} candidate "
            f"chunks, oracle predicts {chunks}")
    if result.stats.morsels_covered != covered:
        raise Divergence(
            "accounting",
            f"{op.name}: {result.stats.morsels_covered} covered "
            f"morsels, oracle predicts {covered}")
    for name in plan.needed_columns:
        if result.stats.synopsis_chunks[name] != answered:
            raise Divergence(
                "accounting",
                f"{op.name}: stats.synopsis_chunks[{name!r}] = "
                f"{result.stats.synopsis_chunks[name]}, oracle predicts "
                f"{answered}")
        if result.stats.decoded_chunks[name] != decoded.get(name, 0):
            raise Divergence(
                "accounting",
                f"{op.name}: stats.decoded_chunks[{name!r}] = "
                f"{result.stats.decoded_chunks[name]}, expected "
                f"{decoded.get(name, 0)}")
        if plan.predicted_decoded_chunks[name] != decoded.get(name, 0):
            raise Divergence(
                "accounting",
                f"{op.name}: plan predicts {name!r} decodes "
                f"{plan.predicted_decoded_chunks[name]} chunks, oracle "
                f"{decoded.get(name, 0)}")
    delta = {}
    if "k" in plan.needed_columns:
        delta["unpacks"] = decoded.get("k", 0)
        delta["replica_reads"] = 64 * decoded.get("k", 0)
    if "v" in plan.needed_columns:
        delta["v_unpacks"] = decoded.get("v", 0)
        delta["v_replica_reads"] = 64 * decoded.get("v", 0)
    r.check_stats(before, delta, op.name)


def _query(r, op, before) -> None:
    """``query_*`` and ``codec_query_count``: the fluent query."""
    table = r.query_table()
    shape = query_shape(op.name, op.args)
    _check_query(r, op, shape.query(table), shape, op.args[-1])


def _parse_checked(name: str, sql: str) -> SelectStmt:
    """``parse(sql)`` — served from the parse memo whenever the shape
    was seen before — checked against a fresh, uncached parse of the
    same text: a memo that serves a tree its parser would no longer
    build (a stale template, a key that confuses two shapes) diverges
    here even when the served tree happens to bind."""
    stmt = parse(sql)
    fresh = _parse_uncached(sql)
    if stmt != fresh:
        raise Divergence(
            "sql",
            f"{name}: {sql!r} parsed (memo) to\n{stmt!r}\n"
            f"but a fresh parse gives\n{fresh!r}")
    return stmt


def bind_checked(name: str, sql: str, table, twin: Query) -> Query:
    """Bind ``sql`` against ``table`` (as ``t``); its logical plan must
    be identical to the fluent ``twin``'s."""
    try:
        bound = bind(_parse_checked(name, sql), {"t": table})
    except SqlError as exc:
        raise Divergence("sql", f"{name}: {sql!r} failed to compile: {exc}")
    if bound.describe() != twin.describe():
        raise Divergence(
            "sql",
            f"{name}: {sql!r} lowered to\n{bound.describe()}\n"
            f"but the fluent twin is\n{twin.describe()}")
    return bound


def _sql(r, op, before) -> None:
    """SQL-frontend twin of a query op.

    Renders a SQL statement for the op's arguments (surface style
    fuzzed by the trailing style int), compiles it, asserts the bound
    logical plan is *identical* to the directly-built fluent twin's,
    then runs the bound query through the full query differential
    checks — so a SQL statement and its twin are provably bit-identical
    end to end.
    """
    table = r.query_table()
    *args, style = op.args
    shape = query_shape(op.name, args)
    bound = bind_checked(op.name, _render_sql_op(op.name, args, style),
                         table, shape.query(table))
    _check_query(r, op, bound, shape, args[-1])


def _sql_error(r, op, before) -> None:
    """A malformed statement must fail with a *positioned*
    :class:`SqlError` — never compile, never raise anything else."""
    sql = _SQL_ERROR_TEMPLATES[op.args[0] % len(_SQL_ERROR_TEMPLATES)]
    try:
        compile_sql(sql, {"t": r.query_table()})
    except SqlError as exc:
        if not 0 <= exc.pos <= len(sql):
            raise Divergence(
                "sql",
                f"sql_error: {sql!r} raised SqlError with pos "
                f"{exc.pos} outside the statement")
        if "^" not in exc.format():
            raise Divergence(
                "sql",
                f"sql_error: {sql!r} error rendering lost its caret: "
                f"{exc.format()!r}")
        return
    except Exception as exc:  # noqa: BLE001 - divergence reporting
        raise Divergence(
            "sql",
            f"sql_error: {sql!r} raised {type(exc).__name__} "
            f"({exc}) instead of SqlError")
    raise Divergence("sql", f"sql_error: {sql!r} compiled without complaint")


#: Statements the frontend must reject with a positioned error; the
#: generator's ``N_SQL_ERROR_TEMPLATES`` mirrors this table's length.
_SQL_ERROR_TEMPLATES = (
    "SELECT",
    "SELECT sum(v) FROM",
    "SELECT sum(v) FROM t WHERE",
    "FROM t SELECT sum(v)",
    "SELECT sum(v) FROM t WHERE 3 < 5",
    "SELECT sum(v) FROM t WHERE wat > 1",
    "SELECT wat FROM t",
    "SELECT v FROM t GROUP BY k",
    "SELECT sum(v) FROM t LIMIT 5",
    "SELECT sum(v) FROM t WHERE k >= 1 ??",
)


def _render_sql_op(name: str, args, style: int) -> str:
    """Render a sql op's statement text in one of the surface styles.

    Styles vary keyword/function case, clause whitespace, a trailing
    semicolon and, on count and min/max statements, the digit in an
    output alias — never the statement's meaning, so every style must
    lower to the identical logical plan.  (The aliases give statements
    that differ only in an identifier's digit, which one parse template
    must never serve for both.)
    """
    def kw(s: str) -> str:
        return s.upper() if style % 2 == 0 else s.lower()

    def rng(column: str, lo: int, hi: int) -> str:
        return (f"{column} >= {lo} {kw('and')} {column} < {hi}")

    if name == "sql_filter_sum":
        select = f"{kw('select')} {kw('sum')}(v)"
        where = rng("k", args[0], args[1])
    elif name == "sql_filter_count":
        select = f"{kw('select')} {kw('count')}(*) {kw('as')} n{style}"
        where = rng("k", args[0], args[1])
    elif name == "sql_filter_minmax":
        select = (f"{kw('select')} {kw('min')}(v) {kw('as')} m{style}, "
                  f"{kw('max')}(v)")
        where = rng("k", args[0], args[1])
    elif name == "sql_and_count":
        select = f"{kw('select')} {kw('count')}(*)"
        where = (f"({rng('k', args[0], args[1])}) {kw('and')} "
                 f"({rng('v', args[2], args[3])})")
    elif name == "sql_or_select":
        select = f"{kw('select')} v"
        where = (f"({rng('k', args[0], args[1])}) {kw('or')} "
                 f"({rng('v', args[2], args[3])})")
    else:  # sql_group_sum
        # Half the styles list the group key in the select list (a
        # bindable no-op), the other half omit it.
        if style >= 3:
            select = f"{kw('select')} k, {kw('sum')}(v)"
        else:
            select = f"{kw('select')} {kw('sum')}(v)"
        where = None

    clauses = [select, f"{kw('from')} t"]
    if where is not None:
        clauses.append(f"{kw('where')} {where}")
    if name == "sql_group_sum":
        clauses.append(f"{kw('group')} {kw('by')} k")
    sep = "\n  " if (style // 2) % 2 else " "
    sql = sep.join(clauses)
    if style >= 4:
        sql += " ;"
    return sql


HANDLERS = {
    "query_filter_sum": _query,
    "query_filter_count": _query,
    "query_filter_minmax": _query,
    "query_key_sum": _query,
    "query_and_count": _query,
    "query_or_select": _query,
    "query_group_sum": _query,
    "codec_query_count": _query,
    "sql_filter_sum": _sql,
    "sql_filter_count": _sql,
    "sql_filter_minmax": _sql,
    "sql_and_count": _sql,
    "sql_or_select": _sql,
    "sql_group_sum": _sql,
    "sql_error": _sql_error,
}
