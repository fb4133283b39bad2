"""Query engine: compiled kernels vs eager, against the interpreted baseline.

Times the morsel-driven query engine (``repro.query``) over a 10M-row
table whose key column arrives roughly sorted, so zone maps prune
hard.  Two execution shapes per predicate:

* **eager** two-pass baseline: a selection scan materializing row
  indices (bypassing the cached zone map — the pre-pushdown shape of
  ``filter_range`` + ``sum``), then a gather-driven sum;
* **compiled**: the whole unpack + predicate + reduce pipeline
  string-generated into a single NumPy kernel specialized on each
  column's bit width — the engine's one execution path.

The interpreted fused pushdown (decode candidate morsels, evaluate the
predicate AST, fold the aggregate, one pass per morsel) is gone from
the library; its timings as this file last measured them are kept in
:data:`INTERPRETED_BASELINE`, and "vs interpreted" divides by those.

Both a **selective** predicate (~1% of rows; zone maps prune almost
everything) and a **non-selective** one (~50%) run serially and on an
8-worker pool with dynamic batch claiming.

A second section times whole-table ``GROUP BY key, SUM(amount)`` at 12
and 50,000 distinct keys: the compiled group-by kernel, serial and
pooled (``SmartTable.group_by_sum`` is the serial run), against the
recorded interpreted per-span sort-and-slice fold (one argsort, one
``np.unique`` and a Python fold per group per 4,096-row span).

A third section prices **planning** (``plan`` in the JSON), on 1M-row
``events`` registered the three ways the end-to-end benchmark serves it
(bit-packed; delta/dict-encoded; range-sharded over four nodes): µs per
``Query.plan`` of a 1 %-span ``SUM/COUNT`` for a cold shape (kernel
cache emptied first), for a warm shape with fresh literals, and per
first ``explain()`` of a warm plan (which is where the section-6
selector runs); then the kernel-cache entries and resident memory that
20,000 distinct-literal plans of one shape leave behind.  It also prices
the other fixed costs of a repeated point statement: ``compile_sql``
(lex, parse, bind) of a cold and of a warm statement shape, binding the
literals to the zone map (``_bind``) over a sorted ``ts`` column
(monotone chunk bounds) and over the same values shuffled (not
monotone), and one metrics-registry lookup.  The values measured at the
parent commit by this same section are recorded beside the new ones
(:data:`PLAN_BASELINE`).

A fourth section (``covered`` in the JSON) runs 50 %-span ``SUM``,
``MIN``, ``MAX`` of ``amount``, ``COUNT(*)`` and ``GROUP BY region,
SUM(amount)`` on the same 1M-row ``events`` and ``events_enc``,
reporting the median time beside the elements decoded per column: on
the sorted ``ts`` most of the span's chunks are *covered* (the zone map
proves the predicate), and the aggregates answer them from the chunk
synopses.  It then sweeps ``COUNT(*) WHERE amount < k`` and
``filter_range("amount", 0, k)`` with and without a zone map on the
unsorted ``amount``, whose candidates scatter.  Every answer is asserted
equal to the decode path's (the same query with ``prune="off"``), so a
wrong synopsis fails the script.  The values measured at the parent
commit by this same section are recorded beside the new ones
(:data:`COVERED_BASELINE`).

Run as a script it writes ``benchmarks/results/query_engine.txt`` plus
machine-readable ``benchmarks/results/BENCH_query_engine.json`` (per
config: seconds, rows/s, speedup vs the recorded interpreted path);
under ``pytest --benchmark-only`` it times the same paths at reduced
scale.
"""

import gc
import json
import os
import statistics
import time

import numpy as np
import pytest

from repro.cluster import ShardedTable, cluster_of
from repro.core import scan_ops
from repro.core.allocate import allocate
from repro.core.table import SmartTable
from repro.obs.registry import registry
from repro.query import Query, codegen, col, in_range, planner
from repro.runtime.loops import default_pool
from repro.sql import compile_sql, parser

try:
    from .common import RESULTS_DIR, emit
except ImportError:  # pragma: no cover - script mode
    from common import RESULTS_DIR, emit

N_SCRIPT = 10_000_000
N_PYTEST = 200_000
KEY_BITS = 32
WORKERS = 8
JSON_NAME = "BENCH_query_engine.json"
#: ``(column, distinct keys)``: a bincount-sized key and one that makes
#: every 4,096-row span nearly all-distinct.
GROUP_KEYS = (("region", 12), ("account", 50_000))
#: ``k`` of the ``covered`` section's ``amount < k`` sweep (20-bit
#: uniform ``amount``: from scattered candidates to every chunk covered).
AMOUNT_SWEEP = (1_000, 10_000, 50_000, 500_000, 1 << 20)
SLOW_RUN_S = 2.0

PLAN_ROWS = 1_000_000
PLAN_STATEMENTS = 20_000
PLAN_TABLES = ("events", "events_enc", "events_sharded")
#: This file's ``plan`` section run against the parent commit's library
#: (004a289: per-statement lexing and parsing, kernel cache keyed by
#: generated source, every range bound by comparing all chunk bounds,
#: registry lookups that rebuild the metric key), same host, same day as
#: the committed BENCH_query_engine.json.
PLAN_BASELINE = {
    "commit": "004a289",
    "events": {"cold_shape_us": 439.6, "warm_fresh_literals_us": 185.1,
               "explain_after_warm_plan_us": 90.6},
    "events_enc": {"cold_shape_us": 454.4, "warm_fresh_literals_us": 190.9,
                   "explain_after_warm_plan_us": 92.6},
    "events_sharded": {"cold_shape_us": 883.7,
                       "warm_fresh_literals_us": 585.9,
                       "explain_after_warm_plan_us": 38.0},
    "kernel_cache_entries": 1,
    "rss_growth_mb": 0.0,
    "fixed_cost_us": {"compile_sql_cold_shape": 73.6,
                      "compile_sql_warm_shape": 73.7,
                      "bind_monotone_map": 103.9,
                      "bind_non_monotone_map": 136.3,
                      "registry_lookup": 1.52},
}

#: This file's ``covered`` section run against the parent commit's
#: library (ce5fe77: a covered morsel still decodes the aggregated
#: column, ingest builds no zone maps, and a scattered candidate set
#: decodes one call per run), same host, same hour as the committed
#: BENCH_query_engine.json.
COVERED_BASELINE = {
    "commit": "ce5fe77",
    "events.sum": {"ms": 2.509, "decoded_elements": {"ts": 41472, "amount": 500224}},
    "events.min": {"ms": 2.923, "decoded_elements": {"ts": 41472, "amount": 500224}},
    "events.max": {"ms": 2.868, "decoded_elements": {"ts": 41472, "amount": 500224}},
    "events.count": {"ms": 0.711, "decoded_elements": {"ts": 41472}},
    "events.group_by": {"ms": 7.075, "decoded_elements": {"ts": 41472, "region": 500224, "amount": 500224}},
    "events_enc.sum": {"ms": 3.283, "decoded_elements": {"ts": 41472, "amount": 500224}},
    "events_enc.min": {"ms": 3.242, "decoded_elements": {"ts": 41472, "amount": 500224}},
    "events_enc.max": {"ms": 3.114, "decoded_elements": {"ts": 41472, "amount": 500224}},
    "events_enc.count": {"ms": 0.967, "decoded_elements": {"ts": 41472}},
    "events_enc.group_by": {"ms": 9.103, "decoded_elements": {"ts": 41472, "region": 500224, "amount": 500224}},
    "amount_sweep": {
        "1000": {"no_map": {"ms": 5.853, "filter_range_ms": 8.52},
                 "map": {"ms": 28.404, "filter_range_ms": 21.673}},
        "10000": {"no_map": {"ms": 6.16, "filter_range_ms": 11.551},
                 "map": {"ms": 113.442, "filter_range_ms": 122.801}},
        "50000": {"no_map": {"ms": 4.971, "filter_range_ms": 13.825},
                 "map": {"ms": 22.093, "filter_range_ms": 27.777}},
        "500000": {"no_map": {"ms": 4.706, "filter_range_ms": 12.923},
                 "map": {"ms": 4.977, "filter_range_ms": 11.395}},
        "1048576": {"no_map": {"ms": 3.957, "filter_range_ms": 13.976},
                 "map": {"ms": 0.959, "filter_range_ms": 13.81}},
    },
}


#: Seconds per run of the interpreted engine as this file last recorded
#: them (commit b788cc1, the last with that engine, same host and
#: ``N_SCRIPT`` rows as the committed BENCH_query_engine.json of that
#: commit), by result table and execution.
INTERPRETED_BASELINE = {
    "commit": "b788cc1",
    "selective (~1%)": {"serial": 0.003248, "parallel": 0.007373},
    "non-selective (~50%)": {"serial": 0.123721, "parallel": 0.270728},
    "12 distinct keys": {"serial": 0.886879, "parallel": 1.182868},
    "50,000 distinct keys": {"serial": 74.931145, "parallel": 74.6256},
}


def _table(n):
    rng = np.random.default_rng(7)
    data = {
        # Time-ordered keys: chunk min/max windows stay tight, so the
        # zone map prunes everything outside the predicate range.
        "ts": np.sort(
            rng.integers(0, 1 << KEY_BITS, n)
        ).astype(np.uint64),
        "amount": rng.integers(0, 1 << 20, n).astype(np.uint64),
    }
    table = SmartTable.from_arrays(data, replicated=True)
    return table, data


def _predicates(n):
    span = 1 << KEY_BITS
    return (
        ("selective (~1%)", int(span * 0.495), int(span * 0.505)),
        ("non-selective (~50%)", int(span * 0.25), int(span * 0.75)),
    )


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _tabulate(title, runs, timings, n, **tag):
    """One result table: (text lines, JSON rows carrying ``tag``), each
    run's speedup taken against :data:`INTERPRETED_BASELINE`."""
    baseline = INTERPRETED_BASELINE[title]
    lines = [
        "",
        f"{title}:",
        f"  {'config':<24} {'time (ms)':>10} {'Mrows/s':>9} "
        f"{'vs interpreted':>15}",
    ]
    for execution in ("serial", "parallel"):
        t = baseline[execution]
        lines.append(
            f"  {execution + ' interpreted':<24} {t * 1e3:>10.1f} "
            f"{n / t / 1e6:>9.1f}    (recorded, "
            f"{INTERPRETED_BASELINE['commit']})")
    rows = []
    for mode, execution, _ in runs:
        t = timings[(mode, execution)]
        speedup = baseline[execution] / t
        rows.append({
            **tag,
            "mode": mode,
            "execution": execution,
            "seconds": round(t, 6),
            "rows_per_s": round(n / t, 1),
            "speedup_vs_interpreted": round(speedup, 3),
        })
        lines.append(
            f"  {execution + ' ' + mode:<24} {t * 1e3:>10.1f} "
            f"{n / t / 1e6:>9.1f} {speedup:>14.2f}x"
        )
    return lines, rows


def _group_table(n):
    rng = np.random.default_rng(11)
    data = {"amount": rng.integers(0, 1 << 20, n).astype(np.uint64)}
    for name, distinct in GROUP_KEYS:
        data[name] = rng.integers(0, distinct, n).astype(np.uint64)
    return SmartTable.from_arrays(data, replicated=True), data


def _group_runs(table, key, pool):
    q = Query(table).group_by(key).sum("amount")

    def fluent(**knobs):
        return lambda: {k: aggs["sum(amount)"]
                        for k, aggs in q.run(**knobs).groups.items()}

    return (
        ("compiled", "serial", fluent()),
        ("compiled", "parallel", fluent(pool=pool)),
    )


def group_by_report(n, pool):
    """Group-by section: (text lines, JSON config rows)."""
    table, data = _group_table(n)
    lines = [
        "",
        f"GROUP BY key, SUM(amount) over {n:,} rows (whole table; "
        f"best of 3, or the checked run alone when it took over "
        f"{SLOW_RUN_S:.0f} s):",
    ]
    configs = []
    for key, distinct in GROUP_KEYS:
        sums = np.bincount(data[key].astype(np.intp),
                           weights=data["amount"].astype(np.float64),
                           minlength=distinct)
        expected = {k: int(sums[k]) for k in np.unique(data[key]).tolist()}
        runs = _group_runs(table, key, pool)
        timings = {}
        for mode, execution, fn in runs:
            t0 = time.perf_counter()
            assert fn() == expected, (key, mode, execution)
            checked = time.perf_counter() - t0
            timings[(mode, execution)] = (
                checked if checked > SLOW_RUN_S else _best_of(fn))
        table_lines, rows = _tabulate(f"{distinct:,} distinct keys", runs,
                                      timings, n, distinct_keys=distinct)
        lines += table_lines
        configs += rows
    return lines, configs


def _plan_tables(n):
    """1M-row ``events`` the three ways the e2e benchmark registers it."""
    rng = np.random.default_rng(7)
    data = {
        "ts": np.sort(rng.integers(0, 1 << KEY_BITS, n)).astype(np.uint64),
        "region": rng.integers(0, 12, n).astype(np.uint64),
        "amount": rng.integers(0, 1 << 20, n).astype(np.uint64),
    }
    events = SmartTable.from_arrays(data, replicated=True)
    shuffled = SmartTable.from_arrays(
        {"ts": rng.permutation(data["ts"]), "amount": data["amount"]},
        replicated=True)
    enc = SmartTable.from_arrays(
        data, replicated=True, codecs={"ts": "delta", "region": "dict"})
    sharded = ShardedTable.from_arrays(
        data, key="ts", cluster=cluster_of(4), mode="range",
        replicate=("amount",))
    tables = dict(zip(PLAN_TABLES, (events, enc, sharded)))
    tables["events_shuffled"] = shuffled
    return tables


def _rss_mb():
    gc.collect()
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def _median_us(fn, repeats, before=None):
    times = []
    for _ in range(repeats):
        if before is not None:
            before()
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return round(statistics.median(times) * 1e6, 1)


def plan_report(n=PLAN_ROWS, statements=PLAN_STATEMENTS):
    """The ``plan`` section: (text lines, JSON dict).  Wall-clock, in
    this process, nothing simulated."""
    tables = _plan_tables(n)
    span = (1 << KEY_BITS) // 100
    rng = np.random.default_rng(1)

    def statement(table):
        lo = int(rng.integers(1, (1 << KEY_BITS) - span))
        return (Query(table).where(in_range("ts", lo, lo + span))
                .sum("amount").count())

    def forget_kernels():
        codegen._KERNEL_CACHE.clear()

    section = {"simulated": False, "rows": n, "statements": statements,
               "baseline": PLAN_BASELINE}
    lines = [
        "",
        f"planning a 1%-span SUM/COUNT over {n:,} rows (us per call, "
        f"median; parent {PLAN_BASELINE['commit']} in brackets):",
        f"  {'table':<16} {'cold shape':>18} {'warm, new literals':>20} "
        f"{'first explain()':>18}",
    ]
    for name in PLAN_TABLES:
        table = tables[name]
        statement(table).plan().explain()  # zone bounds, imports
        row = {
            "cold_shape_us": _median_us(
                lambda: statement(table).plan(), 30, before=forget_kernels),
            "warm_fresh_literals_us": _median_us(
                lambda: statement(table).plan(), 300),
        }
        plans = iter([statement(table).plan() for _ in range(100)])
        row["explain_after_warm_plan_us"] = _median_us(
            lambda: next(plans).explain(), 100)
        section[name] = row
        base = PLAN_BASELINE[name]
        lines.append(f"  {name:<16} " + " ".join(
            f"{row[key]:>9.1f} [{base[key]}]".rjust(width)
            for key, width in (("cold_shape_us", 18),
                               ("warm_fresh_literals_us", 20),
                               ("explain_after_warm_plan_us", 18))))

    forget_kernels()
    events = tables["events"]
    statement(events).plan()
    rss = _rss_mb()
    for _ in range(statements - 1):
        statement(events).plan()
    section["kernel_cache_entries"] = len(codegen._KERNEL_CACHE)
    section["rss_growth_mb"] = round(_rss_mb() - rss, 1)
    lines.append(
        f"  after {statements:,} distinct-literal plans of that shape: "
        f"{section['kernel_cache_entries']:,} kernel-cache entries "
        f"[{PLAN_BASELINE['kernel_cache_entries']}], RSS "
        f"{section['rss_growth_mb']:+.1f} MB "
        f"[{PLAN_BASELINE['rss_growth_mb']}]")

    section["fixed_cost_us"] = fixed = fixed_cost_us(tables, span, rng)
    lines.append("  other fixed costs of one statement (us, median; "
                 "parent in brackets):")
    for key, value in fixed.items():
        lines.append(f"    {key:<32} {value:>8.2f} "
                     f"[{PLAN_BASELINE['fixed_cost_us'][key]}]")
    return lines, section


def fixed_cost_us(tables, span, rng):
    """µs per ``compile_sql`` (cold and warm shape), per zone binding
    on a monotone and a non-monotone map, and per registry lookup."""
    catalog = {"events": tables["events"]}
    # The parse memo, where there is one.
    memo = getattr(parser, "_PARSE_CACHE", {})

    def sql():
        lo = int(rng.integers(1, (1 << KEY_BITS) - span))
        return (f"SELECT sum(amount), count(*) FROM events "
                f"WHERE ts >= {lo} AND ts < {lo + span}")

    def bind(table):
        shape_query = Query(table).where(in_range("ts", 1, 2)).sum("amount")
        shape = planner._plan_shape(shape_query, None)

        def run():
            lo = int(rng.integers(1, (1 << KEY_BITS) - span))
            q = (Query(table).where(in_range("ts", lo, lo + span))
                 .sum("amount"))
            planner._bind(q, shape, "on")
        return run

    reg = registry()
    return {
        "compile_sql_cold_shape": _median_us(
            lambda: compile_sql(sql(), catalog), 300, before=memo.clear),
        "compile_sql_warm_shape": _median_us(
            lambda: compile_sql(sql(), catalog), 1000),
        "bind_monotone_map": _median_us(bind(tables["events"]), 1000),
        "bind_non_monotone_map": _median_us(
            bind(tables["events_shuffled"]), 1000),
        # A lookup is below the timer's resolution: 100 per sample.
        "registry_lookup": round(_median_us(
            lambda: [reg.counter("server.queries", status="ok")
                     for _ in range(100)], 1000) / 100, 2),
    }


def _answer(result):
    return result.groups if result.kind == "groups" else result.aggregates


def _checked_row(q):
    """What ``q`` decoded, after checking its answer against the decode
    path (the same query, ``prune="off"``: no zone map prunes, covers or
    answers anything)."""
    result = q.run()
    decoded = _answer(q.run(prune="off"))
    assert _answer(result) == decoded, (q.describe(), _answer(result),
                                        decoded)
    return {"decoded_elements": dict(result.stats.decoded_elements),
            "synopsis_chunks": dict(getattr(result.stats, "synopsis_chunks",
                                            {}))}


def _alternating_ms(runs, repeats):
    """Median ms per named callable, the callables taking turns so a
    change in the host's speed reaches every one of them alike."""
    times = {name: [] for name in runs}
    for _ in range(repeats):
        for name, fn in runs.items():
            t0 = time.perf_counter()
            fn()
            times[name].append(time.perf_counter() - t0)
    return {name: round(statistics.median(t) * 1e3, 3)
            for name, t in times.items()}


def covered_report(n=PLAN_ROWS, repeats=50):
    """The ``covered`` section: (text lines, JSON dict).

    Median ms per run of 50 %-span aggregates and a group-by on the
    e2e ``events`` and ``events_enc``, the elements each column decoded
    and the chunks synopses answered (exact, from ``QueryStats``); then
    ``count(*) WHERE amount < k`` and ``filter_range("amount", 0, k)``
    on ``events`` with and without a zone map on the unsorted
    ``amount``.  Every answer is asserted equal to the decode path's.
    """
    tables = _plan_tables(n)
    lo, hi = (1 << KEY_BITS) // 4, 3 * (1 << KEY_BITS) // 4

    def where(t):
        return Query(t).where(in_range("ts", lo, hi))

    shapes = {
        "sum": lambda t: where(t).sum("amount"),
        "min": lambda t: where(t).min("amount"),
        "max": lambda t: where(t).max("amount"),
        "count": lambda t: where(t).count(),
        "group_by": lambda t: where(t).group_by("region").sum("amount"),
    }
    section = {"simulated": False, "rows": n, "span": "50%",
               "repeats": repeats, "baseline": COVERED_BASELINE}
    lines = [
        "",
        f"50%-span queries over {n:,} rows (ms per run, median of "
        f"{repeats}; elements decoded per column; parent "
        f"{COVERED_BASELINE['commit']} in brackets):",
    ]
    for name in ("events", "events_enc"):
        for shape, build in shapes.items():
            q = build(tables[name])
            row = section[f"{name}.{shape}"] = {
                "ms": round(_median_us(q.run, repeats) / 1e3, 3),
                **_checked_row(q)}
            base = COVERED_BASELINE.get(f"{name}.{shape}")
            decoded = ", ".join(
                f"{column} {elements:,}" + (
                    f" [{base['decoded_elements'][column]:,}]"
                    if base else "")
                for column, elements in row["decoded_elements"].items())
            was = f" [{base['ms']}]" if base else ""
            lines.append(f"  {name + ' ' + shape:<22} {row['ms']:>7.2f} ms"
                         f"{was}  decoded: {decoded}")

    # The same columns with and without a zone map on ``amount`` (the
    # no-map side reads an unindexed copy of it; a projection shares
    # the columns and their maps); their runs alternate.
    events = tables["events"]
    amount = events["amount"].to_numpy()
    bare = allocate(amount.size, bits=events["amount"].bits, values=amount,
                    replicated=True)
    sides = {"no_map": SmartTable({"ts": events["ts"],
                                   "region": events["region"],
                                   "amount": bare}),
             "map": events.select(["ts", "region", "amount"])}
    sweep = section["amount_sweep"] = {}
    lines += ["", f"count(*) WHERE amount < k / filter_range(amount, 0, k) "
                  f"on events (ms, median of {repeats}, map and no-map "
                  f"runs alternating; parent in brackets):"]
    for k in AMOUNT_SWEEP:
        queries = {key: Query(t).where(col("amount") < k).count()
                   for key, t in sides.items()}
        for key, t in sides.items():
            assert queries[key].run().scalar() == int((amount < k).sum())
            assert np.array_equal(t.filter_range("amount", 0, k),
                                  np.flatnonzero(amount < k))
        count_ms = _alternating_ms(
            {key: q.run for key, q in queries.items()}, repeats)
        filter_ms = _alternating_ms(
            {key: (lambda t=t: t.filter_range("amount", 0, k))
             for key, t in sides.items()}, max(5, repeats // 5))
        for key, q in queries.items():
            row = sweep.setdefault(str(k), {})[key] = {
                "ms": count_ms[key], **_checked_row(q),
                "filter_range_ms": filter_ms[key]}
            base = COVERED_BASELINE["amount_sweep"][str(k)][key]
            lines.append(
                f"  k={k:<8} {key:<7} count {row['ms']:>6.2f} "
                f"[{base['ms']}] ms, filter_range "
                f"{row['filter_range_ms']:>6.2f} "
                f"[{base['filter_range_ms']}] ms")
    return lines, section


def report(n=N_SCRIPT):
    """Return (text report, machine-readable result dict)."""
    # Planning first: its RSS reading wants a heap the 10M-row tables
    # have not churned yet.
    plan_lines, plan_section = plan_report()
    covered_lines, covered_section = covered_report()
    table, data = _table(n)
    pool = default_pool(WORKERS)
    lines = [
        f"range-filter + SUM(amount) over {n:,} rows "
        f"(key {KEY_BITS}b, clustered; best of 3):",
    ]
    results = {
        "benchmark": "query_engine",
        "rows": n,
        "key_bits": KEY_BITS,
        "workers": WORKERS,
        "repeats": 3,
        "interpreted_baseline": INTERPRETED_BASELINE,
        "configs": [],
    }
    for label, lo, hi in _predicates(n):
        mask = (data["ts"] >= lo) & (data["ts"] < hi)
        expected = int(data["amount"][mask].astype(object).sum())

        def eager():
            # Pre-pushdown two-pass shape: full selection scan (no zone
            # map) materializes indices, then a gather-driven sum.
            rows = scan_ops.select_in_range(table.column("ts"), lo, hi)
            return table.sum("amount", rows)

        q = Query(table).where(in_range("ts", lo, hi)).sum("amount")
        runs = (
            ("eager", "serial", eager),
            ("compiled", "serial", lambda: q.run().scalar()),
            ("compiled", "parallel", lambda: q.run(pool=pool).scalar()),
        )
        timings = {}
        for mode, execution, fn in runs:
            assert fn() == expected, (label, mode, execution)
            timings[(mode, execution)] = _best_of(fn)

        table_lines, rows = _tabulate(label, runs, timings, n,
                                      predicate=label)
        lines += table_lines
        results["configs"] += rows

    plan = Query(table).where(
        in_range("ts", *_predicates(n)[0][1:])
    ).sum("amount").plan()
    lines += [
        "",
        f"selective compiled plan: {plan.chunks_candidate:,} candidate "
        f"of {plan.chunks_total:,} chunks "
        f"({plan.morsels_pruned:,}/{len(plan.morsels):,} morsels pruned)",
    ]
    del plan, q, table, data  # the group-by table is as large again
    group_lines, results["group_by"] = group_by_report(n, pool)
    lines += group_lines
    results["plan"] = plan_section
    lines += plan_lines
    results["covered"] = covered_section
    lines += covered_lines
    lines += [
        "",
        "parallel runs use the simulated-NUMA threads pool; Python-"
        "level wall-clock",
        "scaling stays GIL-bounded, so the compiled win is the fused "
        "generated kernel",
        "(one pass, no AST dispatch, wide morsels), not thread count.",
        f"interpreted rows are recorded timings "
        f"({INTERPRETED_BASELINE['commit']}, the last commit with that "
        f"engine), not re-measured.",
    ]
    return "\n".join(lines), results


# -- pytest-benchmark entry points ------------------------------------

@pytest.fixture(scope="module")
def bench_table():
    return _table(N_PYTEST)


@pytest.mark.parametrize("label_idx", [0, 1],
                         ids=["selective", "nonselective"])
def test_fused_filter_sum(benchmark, bench_table, label_idx):
    table, data = bench_table
    _, lo, hi = _predicates(N_PYTEST)[label_idx]
    mask = (data["ts"] >= lo) & (data["ts"] < hi)
    expected = int(data["amount"][mask].astype(object).sum())
    q = Query(table).where(in_range("ts", lo, hi)).sum("amount")
    assert benchmark(lambda: q.run().scalar()) == expected


def test_eager_filter_sum(benchmark, bench_table):
    table, data = bench_table
    _, lo, hi = _predicates(N_PYTEST)[0]
    mask = (data["ts"] >= lo) & (data["ts"] < hi)
    expected = int(data["amount"][mask].astype(object).sum())

    def eager():
        rows = scan_ops.select_in_range(table.column("ts"), lo, hi)
        return table.sum("amount", rows)

    assert benchmark(eager) == expected


def test_fused_parallel(benchmark, bench_table):
    table, data = bench_table
    _, lo, hi = _predicates(N_PYTEST)[0]
    mask = (data["ts"] >= lo) & (data["ts"] < hi)
    expected = int(data["amount"][mask].astype(object).sum())
    pool = default_pool(WORKERS)
    q = Query(table).where(in_range("ts", lo, hi)).sum("amount")
    assert benchmark(
        lambda: q.run(pool=pool).scalar()
    ) == expected


def main() -> None:
    text, results = report()
    emit("Query engine — compiled kernels vs eager and the recorded "
         "interpreted path",
         text, "query_engine.txt")
    path = os.path.join(RESULTS_DIR, JSON_NAME)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
