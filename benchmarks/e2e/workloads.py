"""The four workloads' operation streams, and the NumPy oracle.

An :class:`Op` is one request: SQL text for the ``sql_*`` workloads, a
fluent query or eager table call for ``embedded_write_read``.  Streams
are pure functions of ``(workload, seed, client)``, so two runs with one
seed issue byte-identical statements in the same order.
"""

from __future__ import annotations

import random
from typing import Iterator, NamedTuple, Tuple

import numpy as np

from repro.query import Query, col

from .data import AMOUNT_BITS, REGIONS, TS_SPAN

WORKLOADS = {
    "sql_point": "1 TCP client, 1%-span range SUM/COUNT: zone maps prune "
                 "~99%, so framing, parse/bind, plan and pool dispatch "
                 "dominate; bypasses kernel work",
    "sql_scan": "1 TCP client, 50%-span aggregates, non-sargable count and "
                "GROUP BY: decode+reduce dominates; bypasses the server/sql "
                "layers",
    "sql_mixed": "2 TCP clients, 75% points, 20% scans, 5% 2000-row "
                 "results: the only workload where sessions contend for "
                 "the pool and the GIL",
    "embedded_write_read": "in-process fluent/eager reads while a writer "
                           "thread scatters and live-migrates columns: "
                           "packing, swap and generation pinning, no "
                           "server or SQL",
}

#: Client connections (threads) per workload; the host is sized for
#: nproc = 2, and the method is fixed whatever the host reports.
CLIENTS = {"sql_point": 1, "sql_scan": 1, "sql_mixed": 2,
           "embedded_write_read": 1}

#: Workloads whose load generator and server child are each confined to
#: one CPU.  A 2 ms request is mostly thread and socket wake-ups, and
#: where the scheduler happens to put the two processes swings its
#: latency by 1.5x for tens of seconds; pinned it repeats within 3%.
#: sql_point is about per-request work on one core, so it loses nothing.
#: The scan and mixed workloads stay free: how sessions and pool threads
#: share the cores is what they are there to show.
PINNED = frozenset({"sql_point"})

POINT_SPAN = TS_SPAN // 100
SCAN_SPAN = TS_SPAN // 2
ROWS_SPAN = TS_SPAN // 500
GROUP_SPAN_EMBEDDED = TS_SPAN // 20
LIMIT_ROWS = 100
#: embedded_write_read keeps reads and in-place writes on disjoint rows:
#: ``scatter_many`` clears a slot before it sets it, so an unsynchronized
#: reader of the same rows can see zeros, and no operation may fail here.
#: Reads stay below EMBEDDED_READ_SPAN; the writer amends the hot tail.
EMBEDDED_READ_SPAN = TS_SPAN * 85 // 100
WRITE_FROM_TS = TS_SPAN * 9 // 10

POINT_CLASSES = ("point_events", "point_sharded", "point_enc")
SCAN_CLASSES = ("scan_range", "scan_nonsarg", "scan_groupby", "scan_enc",
                "scan_sharded")
SQL_CLASSES = POINT_CLASSES + SCAN_CLASSES + ("rows",)


class Op(NamedTuple):
    klass: str    # reporting class, e.g. "point_events"
    shape: str    # agg | nonsarg | groupby | rows | limit | eager_range
                  # | eager_groupby
    table: str
    aggs: Tuple[str, ...]
    lo: int
    hi: int


def _range(rng: random.Random, width: int,
           span: int = TS_SPAN) -> Tuple[int, int]:
    lo = rng.randrange(0, span - width)
    return lo, lo + width


def _pick(rng: random.Random, mix):
    r = rng.random()
    for item, share in mix:
        r -= share
        if r < 0:
            return item
    return mix[-1][0]


_POINT_MIX = ((("point_events", "events"), 0.70),
              (("point_sharded", "events_sharded"), 0.15),
              (("point_enc", "events_enc"), 0.15))
_SCAN_MIX = (("scan_range", 0.40), ("scan_nonsarg", 0.15),
             ("scan_groupby", 0.15), ("scan_enc", 0.15),
             ("scan_sharded", 0.15))
_SCAN_TABLE = {"scan_enc": "events_enc", "scan_sharded": "events_sharded"}
# The whole-table eager_groupby takes ~100 ms against ~1 ms for a range
# op; at more than a few per thousand it is half the window and its count
# per run decides qps.
_EMBEDDED_MIX = (("range_events", 0.35), ("range_enc", 0.10),
                 ("range_sharded", 0.10), ("groupby", 0.10),
                 ("limit", 0.145), ("eager_range", 0.20),
                 ("eager_groupby", 0.005))
_EMBEDDED_TABLE = {"range_events": "events", "range_enc": "events_enc",
                   "range_sharded": "events_sharded"}
EMBEDDED_CLASSES = tuple(name for name, _ in _EMBEDDED_MIX)


def _point_op(rng: random.Random) -> Op:
    klass, table = _pick(rng, _POINT_MIX)
    return Op(klass, "agg", table, ("sum", "count"), *_range(rng, POINT_SPAN))


def _scan_op(rng: random.Random) -> Op:
    klass = _pick(rng, _SCAN_MIX)
    if klass == "scan_nonsarg":
        return Op(klass, "nonsarg", "events", ("count",), 0,
                  rng.randrange(1, 1 << AMOUNT_BITS))
    lo, hi = _range(rng, SCAN_SPAN)
    if klass == "scan_groupby":
        return Op(klass, "groupby", "events", ("sum",), lo, hi)
    if klass == "scan_range":
        agg = rng.choice(("sum", "count", "min", "max"))
        return Op(klass, "agg", "events", (agg,), lo, hi)
    return Op(klass, "agg", _SCAN_TABLE[klass], ("sum",), lo, hi)


def _mixed_op(rng: random.Random) -> Op:
    r = rng.random()
    if r < 0.75:
        return _point_op(rng)
    if r < 0.95:
        return _scan_op(rng)
    return Op("rows", "rows", "events", (), *_range(rng, ROWS_SPAN))


def _embedded_op(rng: random.Random) -> Op:
    klass = _pick(rng, _EMBEDDED_MIX)
    if klass in _EMBEDDED_TABLE:
        return Op(klass, "agg", _EMBEDDED_TABLE[klass], ("sum", "count"),
                  *_range(rng, POINT_SPAN, EMBEDDED_READ_SPAN))
    if klass == "groupby":
        return Op(klass, "groupby", "events", ("sum",),
                  *_range(rng, GROUP_SPAN_EMBEDDED, EMBEDDED_READ_SPAN))
    if klass == "limit":
        return Op(klass, "limit", "events", (), rng.randrange(TS_SPAN // 2),
                  TS_SPAN)
    if klass == "eager_range":
        return Op(klass, "eager_range", "events", ("sum", "count"),
                  *_range(rng, POINT_SPAN, EMBEDDED_READ_SPAN))
    # The whole-table eager aggregate reads the never-written table.
    return Op(klass, "eager_groupby", "events_enc", ("sum",), 0, TS_SPAN)


_GENERATORS = {"sql_point": _point_op, "sql_scan": _scan_op,
               "sql_mixed": _mixed_op, "embedded_write_read": _embedded_op}


def ops(workload: str, seed: int, client: int = 0) -> Iterator[Op]:
    """The endless, deterministic op stream of one client."""
    rng = random.Random(f"{workload}:{seed}:{client}")
    draw = _GENERATORS[workload]
    while True:
        yield draw(rng)


_AGG_SQL = {"sum": "sum(amount)", "count": "count(*)",
            "min": "min(amount)", "max": "max(amount)"}


def sql_text(op: Op) -> str:
    where = f"WHERE ts >= {op.lo} AND ts < {op.hi}"
    if op.shape == "agg":
        select = ", ".join(_AGG_SQL[a] for a in op.aggs)
        return f"SELECT {select} FROM {op.table} {where}"
    if op.shape == "nonsarg":
        return f"SELECT count(*) FROM {op.table} WHERE amount < {op.hi}"
    if op.shape == "groupby":
        return (f"SELECT region, sum(amount) FROM {op.table} {where} "
                f"GROUP BY region")
    if op.shape == "rows":
        return f"SELECT ts, amount FROM {op.table} {where}"
    raise ValueError(f"{op.shape} ops have no SQL form")


def fluent_query(op: Op, tables: dict) -> Query:
    """``op`` as a fluent query with library defaults (no knobs)."""
    table = tables[op.table]
    in_range = (col("ts") >= op.lo) & (col("ts") < op.hi)
    if op.shape == "limit":
        return (Query(table).where(col("ts") >= op.lo)
                .select("ts", "amount").limit(LIMIT_ROWS))
    if op.shape == "groupby":
        return Query(table).where(in_range).group_by("region").sum("amount")
    query = Query(table).where(in_range)
    for agg in op.aggs:
        query = query.count() if agg == "count" else getattr(
            query, agg)("amount")
    return query


def run_eager(op: Op, tables: dict):
    """The eager table methods; the answer is in :func:`observed` form."""
    table = tables[op.table]
    if op.shape == "eager_range":
        rows = table.filter_range("ts", op.lo, op.hi)
        return (table.sum("amount", rows), len(rows))
    return tuple(table.group_by_sum("region", "amount").items())


def run_embedded(op: Op, tables: dict):
    """Execute ``op`` in-process (no server, no SQL, no pool); returns
    the answer in :func:`observed` form."""
    if op.shape.startswith("eager"):
        return run_eager(op, tables)
    return observed(fluent_query(op, tables).run())


def observed(result):
    """A wire ``SqlResult`` or in-process ``QueryResult`` reduced to the
    comparable form the oracle produces."""
    if result.kind == "aggregate":
        return tuple(result.aggregates.values())
    if result.kind == "groups":
        return tuple((int(key), next(iter(aggs.values())))
                     for key, aggs in sorted(result.groups.items()))
    return (np.asarray(result.rows), result.columns["ts"],
            result.columns["amount"])


def same_answer(got, want) -> bool:
    if len(got) != len(want):
        return False
    return all(np.array_equal(g, w) if isinstance(w, np.ndarray) else g == w
               for g, w in zip(got, want))


class Oracle:
    """Exact expected answers from the generated arrays: searchsorted
    bounds on the sorted ``ts``, Python-int sums."""

    def __init__(self, data: dict) -> None:
        self.ts, self.region, self.amount = (
            data["ts"], data["region"], data["amount"])
        # 1M rows x 20 bits stays far below 2**64: no wrap.
        self.prefix = np.concatenate(
            ([0], np.cumsum(self.amount, dtype=np.uint64)))
        self.sorted_amount = np.sort(self.amount)

    def _group_sums(self, i0: int, i1: int):
        # float64 weights are exact here: every partial sum < 2**53.
        sums = np.bincount(self.region[i0:i1].astype(np.int64),
                           weights=self.amount[i0:i1].astype(np.float64),
                           minlength=REGIONS)
        present = np.bincount(self.region[i0:i1].astype(np.int64),
                              minlength=REGIONS)
        return tuple((key, int(sums[key])) for key in range(REGIONS)
                     if present[key])

    def expected(self, op: Op):
        # uint64 needles: a Python int would make NumPy compare (and so
        # copy) the whole column as float64 on every call.
        lo, hi = np.uint64(op.lo), np.uint64(op.hi)
        if op.shape == "nonsarg":
            return (int(np.searchsorted(self.sorted_amount, hi, "left")),)
        if op.shape == "eager_groupby":
            return self._group_sums(0, self.ts.size)
        i0 = int(np.searchsorted(self.ts, lo, "left"))
        i1 = int(np.searchsorted(self.ts, hi, "left"))
        if op.shape == "groupby":
            return self._group_sums(i0, i1)
        if op.shape in ("rows", "limit"):
            if op.shape == "limit":
                i1 = min(i1, i0 + LIMIT_ROWS)
            return (np.arange(i0, i1), self.ts[i0:i1], self.amount[i0:i1])
        window = self.amount[i0:i1]
        values = {
            "sum": lambda: int(self.prefix[i1]) - int(self.prefix[i0]),
            "count": lambda: i1 - i0,
            "min": lambda: int(window.min()) if window.size else None,
            "max": lambda: int(window.max()) if window.size else None,
        }
        return tuple(values[a]() for a in op.aggs)
