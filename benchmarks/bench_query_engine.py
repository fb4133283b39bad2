"""Query engine: compiled kernels vs interpreted fused pushdown vs eager.

Times the morsel-driven query engine (``repro.query``) over a 10M-row
table whose key column arrives roughly sorted, so zone maps prune
hard.  Three execution shapes per predicate:

* **eager** two-pass baseline: a selection scan materializing row
  indices (bypassing the cached zone map — the pre-pushdown shape of
  ``filter_range`` + ``sum``), then a gather-driven sum;
* **interpreted** fused pushdown (``codegen="off"``): the PR-4 engine
  — decode candidate morsels, evaluate the predicate AST, fold the
  aggregate, one pass per morsel;
* **compiled** (``codegen="on"``): the whole unpack + predicate +
  reduce pipeline string-generated into a single NumPy kernel
  specialized on each column's bit width, with the larger compiled
  morsel default amortizing per-run setup.

Both a **selective** predicate (~1% of rows; zone maps prune almost
everything) and a **non-selective** one (~50%) run serially and on an
8-worker pool with dynamic batch claiming.

A second section times whole-table ``GROUP BY key, SUM(amount)`` at 12
and 50,000 distinct keys: the eager ``SmartTable.group_by_sum``, the
interpreted per-span sort-and-slice fold (the baseline: one argsort,
one ``np.unique`` and a Python fold per group per 4,096-row span — the
loop ``group_by_sum`` itself ran before it moved onto the kernels'
grouped reduce), and the compiled group-by kernel, serial and pooled.

A third section prices **planning** (``plan`` in the JSON), on 1M-row
``events`` registered the three ways the end-to-end benchmark serves it
(bit-packed; delta/dict-encoded; range-sharded over four nodes): µs per
``Query.plan`` of a 1 %-span ``SUM/COUNT`` for a cold shape (kernel
cache emptied first), for a warm shape with fresh literals, and per
first ``explain()`` of a warm plan (which is where the section-6
selector runs); then the kernel-cache entries and resident memory that
20,000 distinct-literal plans of one shape leave behind.  The values
measured at the parent commit by this same section are recorded beside
the new ones (:data:`PLAN_BASELINE`).

Run as a script it writes ``benchmarks/results/query_engine.txt`` plus
machine-readable ``benchmarks/results/BENCH_query_engine.json`` (per
config: seconds, rows/s, speedup vs the interpreted fused path); under
``pytest --benchmark-only`` it times the same paths at reduced scale.
The selective serial compiled-vs-interpreted speedup is this PR's
acceptance number (>= 1.5x at 10M rows).
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
from repro.core.table import SmartTable
from repro.query import Query, codegen, in_range
from repro.runtime.loops import default_pool

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
SLOW_RUN_S = 2.0

PLAN_ROWS = 1_000_000
PLAN_STATEMENTS = 20_000
PLAN_TABLES = ("events", "events_enc", "events_sharded")
#: This file's ``plan`` section run against the parent commit (5da8a0a:
#: literals baked into kernel source, zone bounds decoded per plan,
#: selector consulted per plan), same host, same day as the committed
#: BENCH_query_engine.json.
PLAN_BASELINE = {
    "commit": "5da8a0a",
    "events": {"cold_shape_us": 693.1, "warm_fresh_literals_us": 657.4,
               "explain_after_warm_plan_us": 11.3},
    "events_enc": {"cold_shape_us": 657.4, "warm_fresh_literals_us": 641.6,
                   "explain_after_warm_plan_us": 12.4},
    "events_sharded": {"cold_shape_us": 1334.0,
                       "warm_fresh_literals_us": 1307.6,
                       "explain_after_warm_plan_us": 27.9},
    "kernel_cache_entries": 20000,
    "rss_growth_mb": 42.0,
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
    table.build_zone_map("ts")
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
    """One result table: (text lines, JSON rows carrying ``tag``)."""
    lines = [
        "",
        f"{title}:",
        f"  {'config':<24} {'time (ms)':>10} {'Mrows/s':>9} "
        f"{'vs interpreted':>15}",
    ]
    rows = []
    for mode, execution, _ in runs:
        t = timings[(mode, execution)]
        speedup = timings[("interpreted", execution)] / t
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
        ("eager", "serial", lambda: table.group_by_sum(key, "amount")),
        ("interpreted", "serial", fluent(codegen="off")),
        ("compiled", "serial", fluent(codegen="on")),
        ("interpreted", "parallel", fluent(pool=pool, codegen="off")),
        ("compiled", "parallel", fluent(pool=pool, codegen="on")),
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
    events.build_zone_map("ts")
    enc = SmartTable.from_arrays(
        data, replicated=True, codecs={"ts": "delta", "region": "dict"})
    enc.build_zone_map("ts")
    sharded = ShardedTable.from_arrays(
        data, key="ts", cluster=cluster_of(4), mode="range",
        replicate=("amount",))
    return dict(zip(PLAN_TABLES, (events, enc, sharded)))


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
    return lines, section


def report(n=N_SCRIPT):
    """Return (text report, machine-readable result dict)."""
    # Planning first: its RSS reading wants a heap the 10M-row tables
    # have not churned yet.
    plan_lines, plan_section = plan_report()
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
        "configs": [],
    }
    acceptance = None
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
            ("interpreted", "serial",
             lambda: q.run(codegen="off").scalar()),
            ("compiled", "serial",
             lambda: q.run(codegen="on").scalar()),
            ("interpreted", "parallel",
             lambda: q.run(pool=pool, codegen="off").scalar()),
            ("compiled", "parallel",
             lambda: q.run(pool=pool, codegen="on").scalar()),
        )
        timings = {}
        for mode, execution, fn in runs:
            assert fn() == expected, (label, mode, execution)
            timings[(mode, execution)] = _best_of(fn)

        table_lines, rows = _tabulate(label, runs, timings, n,
                                      predicate=label)
        lines += table_lines
        results["configs"] += rows
        if label.startswith("selective"):
            acceptance = (timings[("interpreted", "serial")]
                          / timings[("compiled", "serial")])

    plan = Query(table).where(
        in_range("ts", *_predicates(n)[0][1:])
    ).sum("amount").plan()
    results["selective_serial_compiled_speedup"] = round(acceptance, 3)
    lines += [
        "",
        f"selective compiled plan: {plan.chunks_candidate:,} candidate "
        f"of {plan.chunks_total:,} chunks "
        f"({plan.morsels_pruned:,}/{len(plan.morsels):,} morsels pruned)",
        f"selective serial compiled vs interpreted: "
        f"{acceptance:.2f}x (acceptance target >= 1.5x)",
    ]
    del plan, q, table, data  # the group-by table is as large again
    group_lines, results["group_by"] = group_by_report(n, pool)
    lines += group_lines
    results["plan"] = plan_section
    lines += plan_lines
    lines += [
        "",
        "parallel runs use the simulated-NUMA threads pool; Python-"
        "level wall-clock",
        "scaling stays GIL-bounded, so the compiled win is the fused "
        "generated kernel",
        "(one pass, no AST dispatch, wide morsels), not thread count.",
    ]
    return "\n".join(lines), results


# -- pytest-benchmark entry points ------------------------------------

@pytest.fixture(scope="module")
def bench_table():
    return _table(N_PYTEST)


@pytest.mark.parametrize("codegen", ["off", "on"])
@pytest.mark.parametrize("label_idx", [0, 1],
                         ids=["selective", "nonselective"])
def test_fused_filter_sum(benchmark, bench_table, label_idx, codegen):
    table, data = bench_table
    _, lo, hi = _predicates(N_PYTEST)[label_idx]
    mask = (data["ts"] >= lo) & (data["ts"] < hi)
    expected = int(data["amount"][mask].astype(object).sum())
    q = Query(table).where(in_range("ts", lo, hi)).sum("amount")
    assert benchmark(lambda: q.run(codegen=codegen).scalar()) == expected


def test_eager_filter_sum(benchmark, bench_table):
    table, data = bench_table
    _, lo, hi = _predicates(N_PYTEST)[0]
    mask = (data["ts"] >= lo) & (data["ts"] < hi)
    expected = int(data["amount"][mask].astype(object).sum())

    def eager():
        rows = scan_ops.select_in_range(table.column("ts"), lo, hi)
        return table.sum("amount", rows)

    assert benchmark(eager) == expected


@pytest.mark.parametrize("codegen", ["off", "on"])
def test_fused_parallel(benchmark, bench_table, codegen):
    table, data = bench_table
    _, lo, hi = _predicates(N_PYTEST)[0]
    mask = (data["ts"] >= lo) & (data["ts"] < hi)
    expected = int(data["amount"][mask].astype(object).sum())
    pool = default_pool(WORKERS)
    q = Query(table).where(in_range("ts", lo, hi)).sum("amount")
    assert benchmark(
        lambda: q.run(pool=pool, codegen=codegen).scalar()
    ) == expected


def main() -> None:
    text, results = report()
    emit("Query engine — compiled kernels vs interpreted fused pushdown",
         text, "query_engine.txt")
    path = os.path.join(RESULTS_DIR, JSON_NAME)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
