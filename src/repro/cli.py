"""Command-line interface: regenerate any paper table/figure from a shell.

Usage::

    python -m repro table1
    python -m repro figure 2
    python -m repro figure 10 --machine 18-core --language Java
    python -m repro adapt
    python -m repro select --machine 8-core --bits 33
    python -m repro machines
    python -m repro check --seed 0 --ops 500
    python -m repro check --seed 0 --ops 400 --profile query
    python -m repro query
    python -m repro trace scan --rows 200000 --workers 4
    python -m repro trace query --json
    python -m repro sql "SELECT SUM(amount) FROM events WHERE ts < 4096"
    python -m repro serve --port 7878

Each subcommand prints the same report the corresponding
``benchmarks/bench_*.py`` script produces, without needing pytest.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .adapt import (
    MachineCapabilities,
    evaluate_grid,
    profiling_measurement,
    select_configuration,
)
from .adapt.evaluation import AdaptivityCase, case_array
from .interop import figure3_estimates, format_figure3
from .numa import (
    format_table1,
    machine_2x18_haswell,
    machine_2x8_haswell,
    machine_by_name,
    measure,
    placement_survey,
)
from .perfmodel import (
    figure1_rows,
    figure2_rows,
    figure10_grid,
    figure11_grid,
    figure12_grid,
    format_graph_rows,
    format_rows,
)

BOTH_MACHINES = (machine_2x8_haswell, machine_2x18_haswell)


def _cmd_table1(_args) -> str:
    reports = [measure(m()) for m in BOTH_MACHINES]
    lines = [format_table1(reports), ""]
    for factory in BOTH_MACHINES:
        machine = factory()
        lines.append(f"placement survey — {machine.name}:")
        lines.extend("  " + row for row in placement_survey(machine))
    return "\n".join(lines)


def _cmd_machines(_args) -> str:
    return "\n".join(m().describe() for m in BOTH_MACHINES)


def _cmd_figure(args) -> str:
    machines = (
        [machine_by_name(args.machine)] if args.machine
        else [m() for m in BOTH_MACHINES]
    )
    n = args.number
    sections: List[str] = []
    if n == 1:
        for m in machines:
            sections.append(f"--- Figure 1, {m.name} ---")
            sections.append(format_graph_rows(figure1_rows(m)))
    elif n == 2:
        for m in machines:
            sections.append(f"--- Figure 2, {m.name} ---")
            sections.append(format_rows(figure2_rows(m)))
    elif n == 3:
        sections.append(format_figure3(figure3_estimates()))
    elif n == 10:
        languages = [args.language] if args.language else ["C++", "Java"]
        for m in machines:
            for lang in languages:
                sections.append(f"--- Figure 10, {lang}, {m.name} ---")
                sections.append(format_rows(figure10_grid(m, lang)))
    elif n == 11:
        for m in machines:
            sections.append(f"--- Figure 11, {m.name} ---")
            sections.append(format_graph_rows(figure11_grid(m)))
    elif n == 12:
        for m in machines:
            sections.append(f"--- Figure 12, {m.name} ---")
            sections.append(format_graph_rows(figure12_grid(m)))
    else:
        raise SystemExit(
            f"no figure {n} in the paper's evaluation (try 1,2,3,10,11,12)"
        )
    return "\n".join(sections)


def _cmd_stream(args) -> str:
    from .perfmodel import format_stream_table, stream_table

    machines = (
        [machine_by_name(args.machine)] if args.machine
        else [m() for m in BOTH_MACHINES]
    )
    sections = []
    for m in machines:
        sections.append(f"--- STREAM (modelled), {m.name} ---")
        sections.append(format_stream_table(stream_table(m)))
    return "\n".join(sections)


def _cmd_validate(_args) -> str:
    from .perfmodel.validation import format_validation

    return format_validation()


def _cmd_paths(_args) -> str:
    from .interop import format_paths

    return format_paths()


def _cmd_adapt(_args) -> str:
    stats = evaluate_grid()
    lines = [stats.summary()]
    if stats.failures:
        lines.append("")
        lines.append("misses:")
        lines.extend(f"  {f}" for f in stats.failures)
    return "\n".join(lines)


def _cmd_select(args) -> str:
    machine = machine_by_name(args.machine)
    case = AdaptivityCase(
        benchmark=args.benchmark,
        machine=machine,
        bits=args.bits,
        language=args.language or "C++",
    )
    caps = MachineCapabilities(machine)
    result = select_configuration(
        caps, case_array(case), profiling_measurement(case)
    )
    lines = [f"machine:   {machine.name}",
             f"workload:  {case.benchmark} ({case.bits}-bit data)",
             f"selected:  {result.configuration.describe()}",
             "",
             "step 1 trace (uncompressed candidate):"]
    for q, a in result.uncompressed_candidate.trace:
        lines.append(f"  {q:<44} -> {'yes' if a else 'no'}")
    lines.append("step 1 trace (compressed candidate):")
    for q, a in result.compressed_candidate.trace:
        lines.append(f"  {q:<44} -> {'yes' if a else 'no'}")
    lines.append("")
    lines.append(
        f"step 2: uncompressed speedup estimate "
        f"{result.uncompressed_estimate.estimated_speedup:.2f}x"
    )
    if result.compressed_estimate is not None:
        lines.append(
            f"step 2: compressed speedup estimate   "
            f"{result.compressed_estimate.estimated_speedup:.2f}x"
        )
    return "\n".join(lines)


def _cmd_check(args) -> str:
    from .check import run_check

    report = run_check(seed=args.seed, ops=args.ops,
                       n_workers=args.workers,
                       shrink=not args.no_shrink,
                       profile=args.profile)
    text = report.format()
    if not report.ok:
        # Print the full report (shrunk repros included) on stderr and
        # exit 1 so CI marks the job failed.
        raise SystemExit(text)
    return text


def _cmd_live(args) -> str:
    import numpy as np

    from .adapt.inputs import MachineCapabilities as Caps
    from .core.allocate import allocate
    from .core.map_api import sum_range
    from .live import LiveAdaptationDaemon, LiveMigrator, MigrationBudget
    from .numa.allocator import NumaAllocator
    from .obs.registry import registry

    machine = machine_by_name("18-core")
    allocator = NumaAllocator(machine)
    rng = np.random.default_rng(7)
    n = args.rows
    data = rng.integers(0, 1 << 33, size=n, dtype=np.uint64)
    # The paper's worst starting point: uncompressed, OS default (all
    # pages first-touched onto one socket).
    array = allocate(n, bits=64, allocator=allocator, values=data)
    expected = int(data.astype(object).sum())

    daemon = LiveAdaptationDaemon(
        array, Caps(machine), LiveMigrator(allocator),
        budget=MigrationBudget(max_chunks_per_step=512),
        verify_ticks=2,
    )
    lines = [
        f"live adaptation demo: {n:,} elements (33-bit data), starting "
        f"at {array.bits}b {array.placement.describe()}",
        "",
    ]
    for tick in range(args.ticks):
        # The workload the daemon observes: repeated full scans, with a
        # mid-run intensity shift (the "other workloads start" scenario
        # from section 7).
        n_scans = 4 if tick < args.ticks // 2 else 2
        for _ in range(n_scans):
            got = sum_range(array, 0, n)
            if got != expected:
                raise SystemExit(
                    f"scan mismatch during migration: {got} != {expected}"
                )
        daemon.tick(elapsed_s=0.01)
    lines.append("adaptation timeline:")
    lines.extend("  " + row for row in daemon.format_timeline().splitlines())
    lines += [
        "",
        f"final configuration: {array.bits}b {array.placement.describe()} "
        f"(generation {array.generation_epoch})",
        f"every scan stayed consistent with the data "
        f"({expected:,})",
        "",
        "live.* registry counters:",
    ]
    reg = registry()
    lines.extend(
        f"  {key} = {value}"
        for key, value in sorted(reg.snapshot().items())
        if key.startswith("live.") and "{" not in key
    )
    return "\n".join(lines)


def _cmd_query(args) -> str:
    import numpy as np

    from .core.table import SmartTable
    from .query import Query, col, in_range
    from .runtime.loops import default_pool

    rng = np.random.default_rng(42)
    n = args.rows
    # Timestamps arrive roughly ordered, so zone maps prune hard;
    # region/amount are the paper's aggregation-shaped payload columns.
    data = {
        "ts": np.sort(rng.integers(0, 1 << 32, n)).astype(np.uint64),
        "region": rng.integers(0, 12, n).astype(np.uint64),
        "amount": rng.integers(0, 1 << 20, n).astype(np.uint64),
    }
    table = SmartTable.from_arrays(data, replicated=True)
    table.build_zone_map("ts")
    lo, hi = 1 << 28, 1 << 29
    lines = [table.describe(), ""]

    q = Query(table).where(in_range("ts", lo, hi)).sum("amount").count()
    lines += [f"query: SUM(amount), COUNT(*) WHERE {lo} <= ts < {hi}", "",
              q.explain(), ""]
    result = q.run()
    lines += ["serial run (compiled kernel):",
              f"  {result.describe()}",
              *("  " + l for l in result.stats.describe().splitlines()), ""]

    pool = default_pool(args.workers)
    par = Query(table).where(in_range("ts", lo, hi)).sum("amount") \
        .count().run(pool=pool)
    lines += [f"morsel-parallel run ({args.workers} workers):",
              f"  {par.describe()}",
              *("  " + l for l in par.stats.describe().splitlines()), ""]

    g = Query(table).where(col("ts") >= lo).group_by("region") \
        .sum("amount").run(pool=pool)
    lines += [f"group-by run: SUM(amount) GROUP BY region WHERE ts >= {lo}",
              f"  {g.describe()}"]
    for key in list(g.groups)[:6]:
        lines.append(f"    region {key}: {g.groups[key]['sum(amount)']:,}")
    return "\n".join(lines)


def _cmd_trace(args) -> str:
    import numpy as np

    from .obs import (
        TRACER,
        measurement_from_json,
        prometheus_text,
        registry,
        render_span_tree,
        trace_to_json,
        tracing,
    )

    reg = registry()
    reg.reset()
    TRACER.clear()

    lines: List[str] = []
    bridge_span: Optional[str] = None
    bridge_bits = 64
    bridge_length = 0

    if args.demo == "scan":
        from .core.allocate import allocate
        from .core.map_api import sum_range
        from .runtime.loops import default_pool, parallel_sum_bulk

        rng = np.random.default_rng(7)
        values = rng.integers(0, 1 << 20, args.rows).astype(np.uint64)
        array = allocate(args.rows, bits=20, values=values, replicated=True)
        pool = default_pool(args.workers)
        with tracing():
            serial = sum_range(array)
            threaded = parallel_sum_bulk(array, pool=pool, batch=4096)
        lines.append(
            f"scan demo: n={args.rows:,} bits={array.bits} "
            f"serial={serial:,} threaded={threaded:,} "
            f"({'match' if serial == threaded else 'MISMATCH'})"
        )
        bridge_span = "scan.parallel_sum"
        bridge_bits, bridge_length = array.bits, array.length

    elif args.demo == "query":
        from .core.table import SmartTable
        from .query import Query, in_range
        from .runtime.loops import default_pool

        rng = np.random.default_rng(42)
        n = args.rows
        data = {
            "ts": np.sort(rng.integers(0, 1 << 32, n)).astype(np.uint64),
            "amount": rng.integers(0, 1 << 20, n).astype(np.uint64),
        }
        table = SmartTable.from_arrays(data, replicated=True)
        table.build_zone_map("ts")
        lo, hi = 1 << 28, 1 << 30
        pool = default_pool(args.workers)
        with tracing():
            q = Query(table).where(in_range("ts", lo, hi)).sum("amount")
            serial = q.run()
            threaded = Query(table).where(in_range("ts", lo, hi)) \
                .sum("amount").run(pool=pool)
        s_sum = serial.scalar()
        t_sum = threaded.scalar()
        lines.append(
            f"query demo: n={n:,} SUM(amount) WHERE {lo} <= ts < {hi}: "
            f"serial={s_sum:,} threaded={t_sum:,} "
            f"({'match' if s_sum == t_sum else 'MISMATCH'})"
        )
        bridge_span = "query.execute"
        col = table.column("amount")
        bridge_bits, bridge_length = col.bits, col.length

    else:  # adapt
        from .numa.counters import PerfCounters

        machine = machine_by_name("18-core")
        case = AdaptivityCase(benchmark="aggregation", machine=machine,
                              bits=33, language="C++")
        base = profiling_measurement(case)
        from .adapt.dynamic import AdaptiveController

        controller = AdaptiveController(
            MachineCapabilities(machine), case_array(case), base, window=2
        )
        anchor = base.counters
        with tracing():
            for i in range(6):
                # Ramp the instruction rate while bandwidth collapses:
                # the workload turns compute-bound, which drifts far
                # past the threshold and flips the selector away from
                # its bandwidth-motivated choice.
                factor = 1.0 + 0.8 * i
                drifted = PerfCounters(
                    time_s=anchor.time_s,
                    instructions=anchor.instructions * factor,
                    bytes_from_memory=anchor.bytes_from_memory / factor,
                    memory_bandwidth_gbs=(
                        anchor.memory_bandwidth_gbs / factor
                    ),
                    memory_bound=i < 2,
                    label=f"obs{i}",
                )
                controller.observe(drifted)
        lines.append(
            f"adapt demo: {controller.observations_seen} observations, "
            f"{len(controller.reconfigurations)} reconfiguration(s), "
            f"now {controller.configuration.describe()}"
        )

    spans = TRACER.pop_finished()
    if args.json:
        return trace_to_json(spans)

    lines += ["", "span tree:"]
    for root in spans:
        lines.extend(
            "  " + row for row in render_span_tree(root).splitlines()
        )

    lines += ["", "metrics registry (prometheus excerpt):"]
    # reset() zeroes but never unregisters, so a long-lived process can
    # carry zero series from earlier work — show only what this demo
    # actually touched.
    prom = [row for row in prometheus_text(reg).splitlines()
            if not row.startswith("#")
            and not row.endswith(" 0") and not row.endswith(" 0.0")]
    lines.extend("  " + row for row in prom[:20])
    if len(prom) > 20:
        lines.append(f"  ... {len(prom) - 20} more series")

    if bridge_span is not None:
        # Close the loop the obs bridge exists for: dump the trace to
        # JSON, replay it into a WorkloadMeasurement, and re-run the
        # paper's selector on the recording.
        dump = trace_to_json(spans)
        measurement = measurement_from_json(
            dump, span_name=bridge_span, bits=bridge_bits
        )
        machine = machine_by_name("18-core")
        from .adapt.inputs import ArrayCharacteristics

        chars = ArrayCharacteristics(
            length=bridge_length, element_bits=bridge_bits,
            scan_engine="blocked",
        )
        result = select_configuration(
            MachineCapabilities(machine), chars, measurement
        )
        lines += [
            "",
            f"bridge replay (span {bridge_span!r} -> JSON -> "
            f"WorkloadMeasurement):",
            f"  {measurement.counters.summary()}",
            f"  selector decision: {result.configuration.describe()}",
        ]
    return "\n".join(lines)


def _cmd_sql(args) -> str:
    from .server.catalog import demo_catalog
    from .sql import SqlError, compile_sql

    catalog = demo_catalog(rows=args.rows)
    try:
        query = compile_sql(args.statement, catalog.tables())
    except SqlError as exc:
        # Positioned frontend errors exit non-zero with the caret
        # rendering, never a traceback.
        raise SystemExit(exc.format())
    lines = [f"table catalog: {', '.join(catalog.names())} "
             f"({args.rows:,} rows)", "",
             "logical plan:",
             *("  " + l for l in query.describe().splitlines()), ""]
    if args.explain:
        lines += ["physical plan:",
                  *("  " + l for l in query.explain().splitlines())]
        return "\n".join(lines)
    pool = None
    if args.workers > 1:
        from .runtime.loops import default_pool

        pool = default_pool(args.workers)
    result = query.run(pool=pool)
    lines.append(f"result ({result.kind}):")
    if result.kind == "aggregate":
        lines += [f"  {name} = {value}"
                  for name, value in result.aggregates.items()]
    elif result.kind == "groups":
        for key in sorted(result.groups):
            aggs = ", ".join(f"{n}={v}" for n, v in
                             result.groups[key].items())
            lines.append(f"  {key}: {aggs}")
    else:
        lines.append(f"  {result.rows.size} matching rows")
        shown = min(result.rows.size, 10)
        names = sorted(result.columns)
        for i in range(shown):
            vals = ", ".join(f"{n}={int(result.columns[n][i])}"
                             for n in names)
            lines.append(f"  row {int(result.rows[i])}: {vals}")
        if shown < result.rows.size:
            lines.append(f"  ... ({result.rows.size - shown} more)")
    lines += ["", *("  " + l
                    for l in result.stats.describe().splitlines())]
    return "\n".join(lines)


def _cmd_serve(args) -> str:
    import time as _time

    from .obs.registry import registry
    from .server import SmartArrayServer
    from .server.catalog import demo_catalog

    catalog = demo_catalog(rows=args.rows)
    server = SmartArrayServer(
        catalog, host=args.host, port=args.port, n_workers=args.workers
    ).start()
    # Banner goes straight to stdout (flushed) so clients can scrape
    # the bound port while the command blocks serving.
    print(f"repro server listening on {args.host}:{server.port} "
          f"(tables: {', '.join(catalog.names())}; "
          f"{args.workers} worker contexts, queries run on their "
          f"session threads)", flush=True)
    try:
        if args.duration is not None:
            _time.sleep(args.duration)
        else:
            while True:
                _time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown(drain=True)
    reg = registry()
    handled = sum(
        value for key, value in reg.values("server.queries").items()
    )
    return (f"server stopped after draining; "
            f"{reg.value('server.connections_total') or 0} connections, "
            f"{handled} queries handled")


def _cmd_cluster(args) -> str:
    import numpy as np

    from .cluster import ShardedTable, cluster_of
    from .obs.registry import registry
    from .query import Query, in_range
    from .sql import compile_sql

    rng = np.random.default_rng(42)
    n = args.rows
    data = {
        "ts": np.sort(rng.integers(0, 1 << 32, n)).astype(np.uint64),
        "region": rng.integers(0, 12, n).astype(np.uint64),
        "amount": rng.integers(0, 1 << 20, n).astype(np.uint64),
    }
    cluster = cluster_of(args.nodes)
    sharded = ShardedTable.from_arrays(
        data, key="ts", cluster=cluster, mode=args.mode,
        replicate=("amount",),
    )
    lines = [cluster.describe(), "", sharded.describe(), ""]

    lo, hi = 1 << 28, 1 << 29
    q = Query(sharded).where(in_range("ts", lo, hi)) \
        .sum("amount").count()
    dplan = q.plan()
    lines += [f"query: SUM(amount), COUNT(*) WHERE {lo} <= ts < {hi}", "",
              dplan.explain(), ""]

    reg = registry()
    before = reg.snapshot()
    result = dplan.execute()
    lines += ["distributed run (scatter/gather, shards in turn on this "
              "thread):",
              f"  {result.describe()}",
              *("  " + l for l in result.stats.describe().splitlines())]

    # The twin proves the scatter/gather merge lost nothing: the same
    # rows, gathered onto one node, must agree bit-for-bit.
    twin = Query(sharded.gather()).where(in_range("ts", lo, hi)) \
        .sum("amount").count().run()
    if twin.aggregates != result.aggregates:
        raise SystemExit(
            f"gather twin diverged: {twin.aggregates} != "
            f"{result.aggregates}"
        )
    lines += ["", "single-node gather twin: identical "
              f"({twin.describe()})", ""]

    sql = compile_sql(
        f"SELECT region, SUM(amount) FROM t WHERE ts >= {lo} "
        f"GROUP BY region", sharded,
    ).run()
    lines.append("sql fan-out: SELECT region, SUM(amount) ... GROUP BY "
                 "region")
    for key in list(sql.groups)[:6]:
        lines.append(f"  region {key}: {sql.groups[key]['sum(amount)']:,}")

    lines += ["", "cluster.* registry counters (this run):"]
    delta = reg.delta(before)
    lines.extend(f"  {key} = {value}"
                 for key, value in sorted(delta.items())
                 if key.startswith("cluster.") and "__" not in key)
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Smart-arrays reproduction: regenerate the paper's "
                    "tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="Table 1: machine characteristics")
    sub.add_parser("machines", help="list the machine presets")

    fig = sub.add_parser("figure", help="regenerate a figure (1,2,3,10,11,12)")
    fig.add_argument("number", type=int)
    fig.add_argument("--machine", help="8-core or 18-core (default: both)")
    fig.add_argument("--language", choices=["C++", "Java"],
                     help="Figure 10 only (default: both)")

    sub.add_parser("adapt", help="run the section-6.3 adaptivity evaluation")

    stream = sub.add_parser("stream", help="modelled STREAM table")
    stream.add_argument("--machine", help="8-core or 18-core (default: both)")

    sub.add_parser("validate",
                   help="paper-vs-model validation table (all figures)")
    sub.add_parser("paths", help="Figure 7's interoperability paths")

    sel = sub.add_parser("select", help="run the adaptive selector once")
    sel.add_argument("--machine", default="18-core")
    sel.add_argument("--benchmark", default="aggregation",
                     choices=["aggregation", "degree-centrality"])
    sel.add_argument("--bits", type=int, default=33)
    sel.add_argument("--language", choices=["C++", "Java"])

    check = sub.add_parser(
        "check",
        help="smartcheck: differential fuzz the smart-array stack "
             "against a NumPy oracle",
    )
    check.add_argument("--seed", type=int, default=0,
                       help="generator seed (replays deterministically)")
    check.add_argument("--ops", type=int, default=500,
                       help="total operation budget across cases")
    check.add_argument("--workers", type=int, default=4,
                       help="worker-pool size for parallel-scan ops")
    check.add_argument("--no-shrink", action="store_true",
                       help="report raw failures without minimizing")
    check.add_argument("--profile", default="mixed",
                       choices=["mixed", "query", "obs", "live", "sql",
                                "codec", "cluster"],
                       help="op mix: everything, query-engine heavy, "
                            "traced with observability cross-checks, "
                            "scans raced against online migrations, "
                            "random SQL differentially checked against "
                            "fluent-Query twins, every operator "
                            "cross-checked on dict/rle/delta-encoded "
                            "layouts with codec migrations stepped "
                            "mid-scan, or queries fanned out across a "
                            "sharded simulated cluster and proven "
                            "bit-identical to the single-node gather "
                            "twin under exact wire accounting")

    query = sub.add_parser(
        "query",
        help="query-engine demo: build a table, run queries, print "
             "explain() and execution stats",
    )
    query.add_argument("--rows", type=int, default=200_000,
                       help="table size (default 200k)")
    query.add_argument("--workers", type=int, default=8,
                       help="worker-pool size for the parallel run")

    tr = sub.add_parser(
        "trace",
        help="run a demo workload under tracing and render the span "
             "tree, registry metrics, and selector replay",
    )
    tr.add_argument("demo", choices=["scan", "query", "adapt"],
                    help="workload to trace: parallel scan, query "
                         "engine, or the adaptive controller")
    tr.add_argument("--rows", type=int, default=100_000,
                    help="array/table size (default 100k)")
    tr.add_argument("--workers", type=int, default=4,
                    help="worker-pool size for the threaded runs")
    tr.add_argument("--json", action="store_true",
                    help="emit the raw JSON trace dump instead of the "
                         "rendered report")

    live = sub.add_parser(
        "live",
        help="live-adaptation demo: a scan workload on an uncompressed "
             "OS-default array is migrated online by the measurement-"
             "driven daemon; prints the adaptation timeline",
    )
    live.add_argument("--rows", type=int, default=100_000,
                      help="array size (default 100k)")
    live.add_argument("--ticks", type=int, default=30,
                      help="daemon control ticks to run (default 30)")

    sql = sub.add_parser(
        "sql",
        help="parse, plan, and run one SELECT against the demo events "
             "table (positioned errors on bad SQL)",
    )
    sql.add_argument("statement", help='e.g. "SELECT SUM(amount) FROM '
                                       'events WHERE ts < 4096"')
    sql.add_argument("--rows", type=int, default=100_000,
                     help="demo table size (default 100k)")
    sql.add_argument("--workers", type=int, default=1,
                     help="worker-pool size (default 1: serial)")
    sql.add_argument("--explain", action="store_true",
                     help="print the physical plan instead of executing")

    serve = sub.add_parser(
        "serve",
        help="serve the demo catalog over the JSON-over-TCP wire "
             "protocol (SQL in, results out; ctrl-C to drain and stop)",
    )
    serve.add_argument("--port", type=int, default=7878,
                       help="TCP port to bind (0 = ephemeral)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--rows", type=int, default=100_000,
                       help="demo table size (default 100k)")
    serve.add_argument("--workers", type=int, default=4,
                       help="worker contexts a query's morsels are dealt "
                            "over, on its session thread (default 4)")
    serve.add_argument("--duration", type=float, default=None,
                       help="serve for N seconds then drain and exit "
                            "(default: until ctrl-C)")

    clus = sub.add_parser(
        "cluster",
        help="sharded-cluster demo: partition the events table across "
             "simulated nodes, fan a query out, and prove the gather "
             "matches the single-node twin (plus wire accounting)",
    )
    clus.add_argument("--rows", type=int, default=200_000,
                      help="table size (default 200k)")
    clus.add_argument("--nodes", type=int, default=2,
                      help="simulated cluster size (default 2)")
    clus.add_argument("--mode", default="range",
                      choices=["hash", "range"],
                      help="partitioning of the shard key (default range)")

    return parser


_COMMANDS = {
    "table1": _cmd_table1,
    "machines": _cmd_machines,
    "figure": _cmd_figure,
    "adapt": _cmd_adapt,
    "select": _cmd_select,
    "stream": _cmd_stream,
    "validate": _cmd_validate,
    "paths": _cmd_paths,
    "check": _cmd_check,
    "query": _cmd_query,
    "trace": _cmd_trace,
    "live": _cmd_live,
    "sql": _cmd_sql,
    "serve": _cmd_serve,
    "cluster": _cmd_cluster,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    print(_COMMANDS[args.command](args))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
