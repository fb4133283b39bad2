"""The traced pass: where every per-layer metric comes from.

Spans are recorded by the benchmark's own code around its calls into
each layer (spans inside ``src/repro`` are a later issue), kept in
memory and written out when the pass ends.  End-to-end metrics never
come from here.

A pass splits its ``--seconds`` into fixed shares: closed-loop windows
against the server child (class latencies, scaling), the same statement
stream replayed in this process stage by stage with every other request
traced, and fixed probes of single layers with their floors.
"""

from __future__ import annotations

import json
import os
import socket
import statistics
import tempfile
import threading
import time
from typing import Callable, Dict, List

import numpy as np

from repro.cluster import frame_bytes
from repro.core.allocate import allocate
from repro.core.codecs import encoded_count_in_range
from repro.core.zonemap import ZoneMap
from repro.obs import TRACER, tracing
from repro.query import compile_query
from repro.server import Catalog, SmartArrayServer, recv_frame, send_frame
from repro.server.client import connect
from repro.sql import bind, parse

from . import data as inputs
from . import stats
from .loadgen import Sample, ServerChild, pinning_cpus, run_clients, verify
from .metrics import PER_LAYER
from .untraced import (Writer, embedded_window, tcp_window,
                       verify_embedded)
from .workloads import (CLIENTS, POINT_CLASSES, SCAN_CLASSES, SQL_CLASSES,
                        Op, Oracle, fluent_query, observed, ops, run_eager,
                        sql_text)

#: Shares of ``--seconds``; they sum to 1.  MAIN is the workload's own
#: loop (TCP at its client count; reads beside writes), SECOND its
#: contrast (the other client count; reads alone).
SHARE_MAIN, SHARE_SECOND, SHARE_REPLAY, SHARE_PROBES = 0.25, 0.10, 0.40, 0.25
#: The exact counts are taken over this many first ops of client 0's
#: stream, so they repeat exactly for one commit and one seed.
COUNT_OPS = 64
MAX_SPANS_WRITTEN = 50_000
PROBE_SCAN = Op("scan_range", "agg", "events", ("sum",),
                inputs.TS_SPAN // 4, 3 * (inputs.TS_SPAN // 4))


class Recorder:
    """Spans as ``[name, start, end, parent, request]`` rows; a span's
    id is its row index."""

    def __init__(self) -> None:
        self.rows: List[list] = []

    def open(self, name: str, parent, request: int) -> int:
        self.rows.append([name, time.perf_counter(), None, parent, request])
        return len(self.rows) - 1

    def close(self, span: int) -> None:
        self.rows[span][2] = time.perf_counter()

    def add(self, name: str, start: float, end: float, parent,
            request: int) -> None:
        self.rows.append([name, start, end, parent, request])

    def spans(self) -> List[dict]:
        return [{"id": i, "name": r[0], "start": r[1], "end": r[2],
                 "parent": r[3], "request_id": r[4]}
                for i, r in enumerate(self.rows)]


class _NoRecorder:
    """The untraced twin: same calls, nothing kept."""

    def open(self, name, parent, request):
        return None

    def close(self, span):
        pass

    def add(self, *span):
        pass


_NO_RECORDER = _NoRecorder()


class Staged:
    """The request path, stage by stage, in this process.

    ``request`` replays what a server session does for one ``sql``
    frame: ``recv_frame`` -> ``parse`` -> ``bind`` -> ``Query.plan`` ->
    ``PhysicalPlan.execute`` -> ``send_frame``, over a socketpair, on the
    pool and timeout an unstarted ``SmartArrayServer`` defaults to.
    ``query`` is the embedded twin: a fluent query planned and executed
    with library defaults.  Sharded tables' stages are named
    ``cluster.*`` so the trace attributes them to that layer.

    Even-numbered requests are recorded and odd ones are not, so the
    traced and untraced halves of one loop see the same machine and
    their p50s differ by the cost of the spans alone.
    """

    def __init__(self, tables: dict) -> None:
        catalog = Catalog()
        for name, table in tables.items():
            catalog.register(name, table)
        defaults = SmartArrayServer(catalog, port=0)  # never started
        self.pool = defaults.pool
        self.timeout_s = defaults.default_timeout_s
        self.tables = catalog.tables()
        self.client, self.server = socket.socketpair()
        self.recorder = Recorder()
        self.requests = 0
        #: ``(op, plan, result)`` of the first ``COUNT_OPS`` planned ops.
        self.captured: List[tuple] = []
        self.fanout_s: List[float] = []

    def close(self) -> None:
        self.client.close()
        self.server.close()

    def _begin(self):
        rid = self.requests
        self.requests += 1
        return (self.recorder if rid % 2 == 0 else _NO_RECORDER), rid

    def _plan_execute(self, op: Op, query, rec, root, rid: int,
                      plan_knobs: dict, run_knobs: dict):
        layer = "cluster" if op.table == "events_sharded" else "query"
        span = rec.open(f"{layer}.plan", root, rid)
        plan = query.plan(**plan_knobs)
        rec.close(span)
        span = rec.open(f"{layer}.execute", root, rid)
        t0 = time.perf_counter()
        result = plan.execute(**run_knobs)
        rec.close(span)
        if layer == "query":
            rec.add("query.kernel", t0, t0 + result.stats.wall_time_s, span,
                    rid)
        else:
            self.fanout_s.append(
                max(s.wall_time_s for s in plan.shard_stats.values())
                + result.shipment.network_time_s)
        if len(self.captured) < COUNT_OPS:
            self.captured.append((op, plan, result))
        return result

    def request(self, op: Op):
        rec, rid = self._begin()
        send_frame(self.client, {"op": "sql", "sql": sql_text(op)})
        root = rec.open("request", None, rid)
        span = rec.open("server.recv", root, rid)
        frame = recv_frame(self.server)
        rec.close(span)
        span = rec.open("sql.parse", root, rid)
        stmt = parse(frame["sql"])
        rec.close(span)
        span = rec.open("sql.bind", root, rid)
        query = bind(stmt, self.tables)
        rec.close(span)
        result = self._plan_execute(
            op, query, rec, root, rid, {"pool": self.pool},
            {"pool": self.pool, "cancel": threading.Event(),
             "timeout_s": self.timeout_s})
        span = rec.open("server.send", root, rid)
        send_frame(self.server, result_frame(result, f"q{rid}"))
        rec.close(span)
        rec.close(root)
        recv_frame(self.client)
        return result

    def query(self, op: Op):
        rec, rid = self._begin()
        root = rec.open("request", None, rid)
        if op.shape.startswith("eager"):
            span = rec.open("core.eager", root, rid)
            answer = run_eager(op, self.tables)
            rec.close(span)
        else:
            span = rec.open("query.build", root, rid)
            query = fluent_query(op, self.tables)
            rec.close(span)
            answer = observed(
                self._plan_execute(op, query, rec, root, rid, {}, {}))
        rec.close(root)
        return answer


def result_frame(result, query_id: str) -> dict:
    """A result in the wire format ``repro.server.client.SqlResult``
    documents.  The server's own encoder is private, so the staged
    replay's ``server.send`` stage encodes this mirror of it; the real
    encoder is measured over TCP (``server.result_encode_ms``)."""
    s = result.stats
    frame = {"ok": True, "id": query_id, "kind": result.kind, "stats": {
        "mode": s.mode, "wall_time_s": s.wall_time_s,
        "rows_scanned": s.rows_scanned, "rows_matched": s.rows_matched,
        "morsels_executed": s.morsels_executed,
        "morsels_pruned": s.morsels_pruned,
        "decoded_chunks": dict(s.decoded_chunks)}}
    if result.kind == "aggregate":
        frame["aggregates"] = dict(result.aggregates)
    elif result.kind == "groups":
        frame["groups"] = [[k, dict(a)]
                           for k, a in sorted(result.groups.items())]
    else:
        frame["rows"] = [int(i) for i in result.rows]
        frame["columns"] = {name: [int(v) for v in values]
                            for name, values in result.columns.items()}
    return frame


def timed(fn: Callable[[], object], budget_s: float) -> float:
    """Median seconds of ``fn`` over as many calls as fit ``budget_s``
    (at least three), after one unmeasured call."""
    fn()
    times: List[float] = []
    deadline = time.perf_counter() + budget_s
    while len(times) < 3 or time.perf_counter() < deadline:
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def _p50_ms(samples: List[Sample], t0: float = 0.0) -> float:
    """Median latency of the samples that ended at or after ``t0``."""
    return stats.percentile(
        [s.latency for s in samples if s.end >= t0], 50) * 1e3


def _in_window(samples, ok, t0):
    return [s for s, fine in zip(samples, ok) if fine and s.end >= t0]


# -- counts over the first COUNT_OPS ops of the stream -------------------

def exact_counts(captured: List[tuple]) -> Dict[str, float]:
    if len(captured) < COUNT_OPS:
        raise RuntimeError(
            f"only {len(captured)} of {COUNT_OPS} ops ran in the traced "
            f"replay; give the pass more --seconds")
    plans = [plan for _, plan, _ in captured]
    results = [result for _, _, result in captured]
    shipped = [r.shipment for r in results if hasattr(r, "shipment")]
    matched = sum(r.stats.rows_matched for r in results)
    return {
        "query.prune_ratio": (sum(p.chunks_pruned for p in plans)
                              / sum(p.chunks_total for p in plans)),
        "query.rows_scanned_per_matched": (
            sum(r.stats.rows_scanned for r in results) / matched
            if matched else 0.0),
        "query.compiled_share": (
            sum(r.stats.mode == "compiled" for r in results) / len(results)),
        "query.decoded_elements_per_op": (
            sum(sum(r.stats.decoded_elements.values()) for r in results)
            / len(results)),
        "cluster.bytes_shipped_per_op": (
            sum(s.bytes_shipped for s in shipped) / len(shipped)
            if shipped else 0.0),
        "cluster.rpcs_per_op": (
            sum(s.rpcs for s in shipped) / len(shipped) if shipped else 0.0),
    }


# -- what the spans say ---------------------------------------------------

def span_metrics(spans: List[dict], fanout_s: List[float]
                 ) -> Dict[str, float]:
    selfs = stats.self_time_by_name(spans)
    durations: Dict[str, List[float]] = {}
    for s in spans:
        durations.setdefault(s["name"], []).append(s["end"] - s["start"])

    def p50(table: dict, name: str, scale: float) -> float:
        return (stats.percentile(table[name], 50) * scale
                if name in table else 0.0)

    return {
        "sql.parse_us": p50(selfs, "sql.parse", 1e6),
        "sql.bind_us": p50(selfs, "sql.bind", 1e6),
        "query.plan_us": p50(selfs, "query.plan", 1e6),
        "query.execute_ms": p50(durations, "query.execute", 1e3),
        "query.kernel_ms": p50(durations, "query.kernel", 1e3),
        "query.dispatch_ms": p50(selfs, "query.execute", 1e3),
        "cluster.plan_us": p50(selfs, "cluster.plan", 1e6),
        "cluster.execute_ms": p50(durations, "cluster.execute", 1e3),
        "cluster.fanout_s_simulated": (
            statistics.median(fanout_s) if fanout_s else 0.0),
        # Every root is a "request", and both tables keep span order.
        "trace.stage_coverage": statistics.median(
            1.0 - own / whole for own, whole in
            zip(selfs["request"], durations["request"])),
    }


def _replay(execute, workload: str, seed: int, seconds: float):
    """One in-process closed loop of the staged path.  Returns the
    samples, the untraced half's window p50 (ms), and what tracing costs:
    the traced half's p50 over the untraced half's, class by class (the
    halves draw different mixes), as the median over classes."""
    t0, samples = run_clients([execute], [ops(workload, seed)], seconds)
    halves = ({}, {})
    for i, s in enumerate(samples):
        if s.end >= t0:
            halves[i % 2].setdefault(s.op.klass, []).append(s.latency)
    traced, untraced = halves
    ratios = [stats.percentile(traced[k], 50)
              / stats.percentile(untraced[k], 50)
              for k in traced if k in untraced]
    return samples, _p50_ms(samples[1::2], t0), statistics.median(ratios)


def _write_spans(spans: List[dict], workload: str, workdir: str) -> str:
    path = os.path.join(workdir, f"trace_{workload}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "spans_recorded": len(spans),
                   "spans": spans[:MAX_SPANS_WRITTEN]}, fh)
    return path


# -- fixed probes of single layers, with their floors ---------------------

def probes(tables: dict, data: dict, pool, budget_s: float
           ) -> Dict[str, float]:
    rows = data["ts"].size
    each = budget_s / 20    # there are twenty timed() calls below
    out: Dict[str, float] = {}
    rng = np.random.default_rng(0)

    for bits in (8, 20, 32, 33):
        values = rng.integers(0, 1 << bits, rows).astype(np.uint64)
        array = allocate(rows, bits=bits, values=values)
        out[f"core.unpack_melems_s.{bits}"] = (
            rows / timed(array.to_numpy, each) / 1e6)
    amount = allocate(rows, bits=inputs.AMOUNT_BITS, values=data["amount"])
    out["core.pack_melems_s"] = (
        rows / timed(lambda: amount.fill(data["amount"]), each) / 1e6)
    idx = np.sort(rng.choice(rows, min(10_000, rows), replace=False)
                  ).astype(np.int64)
    vals = data["amount"][idx]
    out["core.scatter_kops_s"] = (
        idx.size / timed(lambda: amount.scatter_many(idx, vals), each) / 1e3)

    runs = data["ts"] >> np.uint64(22)   # ~1000 sorted runs
    for codec, values in (("dict", data["region"]), ("rle", runs),
                          ("delta", data["ts"])):
        array = allocate(rows, values=values, codec=codec)
        out[f"core.codec_decode_melems_s.{codec}"] = (
            rows / timed(array.to_numpy, each) / 1e6)
        lo = np.uint64(int(values.max()) // 4)
        hi = np.uint64(3 * (int(values.max()) // 4) + 1)
        out[f"core.encoded_count_melems_s.{codec}"] = rows / timed(
            lambda: encoded_count_in_range(array.generation, lo, hi),
            each) / 1e6

    events = tables["events"]
    out["core.zonemap_build_ms"] = timed(
        lambda: ZoneMap.build(events["ts"]), each) * 1e3

    ts, amounts = data["ts"], data["amount"]
    lo, hi = np.uint64(PROBE_SCAN.lo), np.uint64(PROBE_SCAN.hi)
    floor = timed(lambda: amounts[(ts >= lo) & (ts < hi)].sum(), each)
    out["floor.numpy_scan_ms"] = floor * 1e3

    query = fluent_query(PROBE_SCAN, tables)
    plan = query.plan(pool=pool)
    kernel: List[float] = []
    pooled = timed(lambda: kernel.append(
        plan.execute(pool=pool).stats.wall_time_s), each)
    serial = timed(lambda: query.plan().execute(), each)
    out["core.decode_vs_floor"] = statistics.median(kernel) / floor
    out["runtime.pool_speedup"] = serial / pooled
    out["runtime.pool_dispatch_us"] = timed(
        lambda: pool.run(lambda ctx: None), each) * 1e6

    # Every fresh literal is a cold compile: the kernel cache is keyed
    # on the generated source.
    point = Op("point_events", "agg", "events", ("sum", "count"), 0, 1)
    shape = fluent_query(point, tables).plan()
    fresh = iter(range(1, 1 << 30))
    out["query.codegen_compile_us"] = timed(lambda: compile_query(
        fluent_query(point._replace(hi=next(fresh)), tables),
        shape.needed_columns, shape.kernel.column_bits,
        shape.morsel_elements), each) * 1e6

    point = point._replace(lo=inputs.TS_SPAN // 3,
                           hi=inputs.TS_SPAN // 3 + inputs.TS_SPAN // 100)
    run = fluent_query(point, tables).run
    plain = timed(run, each)
    with tracing():
        traced = timed(run, each)
    TRACER.pop_finished()
    out["obs.tracing_overhead_ratio"] = traced / plain
    return out


# -- the two kinds of pass -------------------------------------------------

_SERVER_BYPASSED = tuple(
    d.name for d in PER_LAYER if d.name.startswith(("server.", "sql.")))
_LIVE = tuple(d.name for d in PER_LAYER if d.name.startswith("live."))


def _class_latencies(good: List[Sample]) -> Dict[str, float]:
    by_class: Dict[str, List[float]] = {}
    for s in good:
        by_class.setdefault(s.op.klass, []).append(s.latency * 1e3)

    def pct(classes, q: float) -> float:
        pooled = [v for c in classes for v in by_class.get(c, ())]
        return stats.percentile(pooled, q) if pooled else 0.0

    out = {f"server.class.{c}.p50_ms": pct((c,), 50) for c in SQL_CLASSES}
    out["server.point_p50_ms"] = pct(POINT_CLASSES, 50)
    out["server.point_p95_ms"] = pct(POINT_CLASSES, 95)
    out["server.scan_p50_ms"] = pct(SCAN_CLASSES, 50)
    out["server.p95_ms"] = pct(SQL_CLASSES, 95)
    out["server.p99_ms"] = pct(SQL_CLASSES, 99)
    return out


def _wire_metrics(samples: List[Sample]) -> Dict[str, float]:
    """Frame sizes and codec times over the first ``COUNT_OPS`` replies
    of client 0, with the two run-varying fields (query id, wall time)
    blanked so the byte count repeats exactly."""
    first = samples[:COUNT_OPS]
    if len(first) < COUNT_OPS or any(s.error for s in first):
        raise RuntimeError("too few clean replies to size the frames")
    frames = []
    total = 0
    for s in first:
        raw = dict(s.result.raw, id="")
        raw["stats"] = dict(raw["stats"], wall_time_s=0.0)
        frames.append(raw)
        total += frame_bytes({"op": "sql", "sql": sql_text(s.op)})
        total += frame_bytes(raw)
    a, b = socket.socketpair()
    try:
        encode, decode = [], []
        for frame in frames:
            t0 = time.perf_counter()
            send_frame(a, frame)
            t1 = time.perf_counter()
            recv_frame(b)
            decode.append(time.perf_counter() - t1)
            encode.append(t1 - t0)
    finally:
        a.close()
        b.close()
    return {"server.frame_bytes_per_op": total / COUNT_OPS,
            "server.protocol.encode_us": statistics.median(encode) * 1e6,
            "server.protocol.decode_us": statistics.median(decode) * 1e6}


def _outside_executor_ms(good: List[Sample], classes) -> float:
    """p50 of round trip minus the executor time the reply reports:
    wire, framing, parse, bind, plan and result encoding."""
    outside = [s.latency - s.result.stats["wall_time_s"] for s in good
               if s.op.klass in classes]
    return stats.percentile(outside, 50) * 1e3 if outside else 0.0


def measure_sql(workload: str, seed: int, seconds: float, data: dict,
                tables: dict, oracle: Oracle, staged: Staged, workdir: str):
    values: Dict[str, float] = dict.fromkeys(_LIVE, 0.0)
    checked: List[bool] = []
    clients = CLIENTS[workload]
    with tempfile.TemporaryDirectory(dir=workdir) as input_dir:
        inputs.save(data, input_dir)
        generator_cpus, server_cpus = pinning_cpus(workload)
        with ServerChild(input_dir, server_cpus) as child:
            t0, samples, _ = tcp_window(child, workload, seed,
                                        seconds * SHARE_MAIN, clients,
                                        generator_cpus)
            other = 1 if clients > 1 else 2
            t0_other, samples_other, _ = tcp_window(
                child, workload, seed, seconds * SHARE_SECOND, other,
                generator_cpus)
            with connect(port=child.port) as conn:
                values["server.ping_rtt_us"] = timed(conn.ping, 0.2) * 1e6
    ok = verify(samples, oracle)
    ok_other = verify(samples_other, oracle)
    checked += ok + ok_other
    good = _in_window(samples, ok, t0)
    qps = {clients: len(good) / (seconds * SHARE_MAIN),
           other: len(_in_window(samples_other, ok_other, t0_other))
           / (seconds * SHARE_SECOND)}
    values["server.client_scaling"] = qps[2] / qps[1]
    values.update(_class_latencies(good))
    values.update(_wire_metrics(samples))
    tcp_p50 = _p50_ms(good)

    values["server.overhead_ms"] = _outside_executor_ms(good, SQL_CLASSES)
    values["server.result_encode_ms"] = _outside_executor_ms(good, ("rows",))

    replayed, _, values["obs.bench_trace_overhead_ratio"] = _replay(
        staged.request, workload, seed, seconds * SHARE_REPLAY)
    checked += verify(replayed, oracle)
    return values, checked, tcp_p50


def measure_embedded(workload: str, seed: int, seconds: float, data: dict,
                     tables: dict, oracle: Oracle, staged: Staged,
                     workdir: str):
    del workdir
    values: Dict[str, float] = dict.fromkeys(_SERVER_BYPASSED, 0.0)
    checked: List[bool] = []
    t0, alone, _ = embedded_window(tables, workload, seed,
                                   seconds * SHARE_SECOND)
    step_times: List[float] = []
    writer = Writer(tables, data, seed, step_times)
    writer.start()
    try:
        t0_w, beside, _ = embedded_window(tables, workload, seed,
                                          seconds * SHARE_MAIN)
    finally:
        write_failures = writer.finish(data)
    checked += [True] * (writer.migrations + 2 - write_failures)
    checked += [False] * write_failures
    ok_alone = verify_embedded(alone, oracle)
    ok_beside = verify_embedded(beside, oracle)
    checked += ok_alone + ok_beside
    if not writer.cycle_s:
        raise RuntimeError("no migration cycle finished inside the window; "
                           "give the pass more --seconds")
    chunks = -(-data["ts"].size // 64) * writer.migrations
    values["live.migrate_s"] = statistics.median(writer.cycle_s)
    values["live.step_ms_p95"] = stats.percentile(step_times, 95) * 1e3
    values["live.chunks_per_s"] = chunks / sum(step_times)
    good = _in_window(beside, ok_beside, t0_w)
    values["live.reader_slowdown"] = (
        _p50_ms(good) / _p50_ms(_in_window(alone, ok_alone, t0)))
    values["live.read_p95_ms"] = stats.percentile(
        [s.latency for s in good], 95) * 1e3

    replayed, request_p50, values["obs.bench_trace_overhead_ratio"] = (
        _replay(staged.query, workload, seed, seconds * SHARE_REPLAY))
    checked += verify_embedded(replayed, oracle)
    return values, checked, request_p50


def measure(workload: str, seed: int, seconds: float, rows: int,
            workdir: str) -> dict:
    data = inputs.generate(seed, rows)
    tables, build_s = inputs.build_tables(data)
    oracle = Oracle(data)
    staged = Staged(tables)
    run = (measure_embedded if workload == "embedded_write_read"
           else measure_sql)
    try:
        values, checked, request_p50 = run(
            workload, seed, seconds, data, tables, oracle, staged, workdir)
        values["core.ingest_mrows_s"] = (
            len(inputs.TABLES) * rows / build_s / 1e6)
        values.update(exact_counts(staged.captured))
        spans = staged.recorder.spans()
        values.update(span_metrics(spans, staged.fanout_s))
        values.update(probes(tables, data, staged.pool,
                             seconds * SHARE_PROBES))
    finally:
        staged.close()
    # The interaction prediction, stated before measuring: what is not
    # kernel work.  Over TCP that is everything outside the executor plus
    # the pool's empty dispatch inside it; embedded, which passes no pool,
    # it is planning plus the executor's self time.
    if run is measure_sql:
        overhead_ms = (values["server.overhead_ms"]
                       + values["runtime.pool_dispatch_us"] / 1e3)
    else:
        overhead_ms = (values["query.plan_us"] / 1e3
                       + values["query.dispatch_ms"])
    values["trace.overhead_share"] = overhead_ms / request_p50
    path = _write_spans(spans, workload, workdir)
    notes = [
        f"request p50 {request_p50:.3f} ms; stage coverage "
        f"{values['trace.stage_coverage']:.3f} (accounted when >= 0.85)",
        f"overhead share {values['trace.overhead_share']:.3f} "
        f"(predicted >= 0.70 on sql_point, < 0.05 on sql_scan); kernel "
        f"p50 {values['query.kernel_ms']:.3f} ms",
        f"floors: ping {values['server.ping_rtt_us']:.1f} us, empty pool "
        f"dispatch {values['runtime.pool_dispatch_us']:.1f} us, NumPy scan "
        f"{values['floor.numpy_scan_ms']:.3f} ms",
        f"{len(spans)} spans -> {os.path.relpath(path)}",
    ]
    return {"attempted": len(checked), "failed": checked.count(False),
            "metrics": {name: {"value": value}
                        for name, value in values.items()},
            "notes": notes}
