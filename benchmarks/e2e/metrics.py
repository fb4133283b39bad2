"""The metric names, units, directions and bounds: the contract that
``BENCHMARK.json`` publishes and ``tests/test_contract.py`` holds it to.

``moves`` states, before anything is measured, which end-to-end metric
a layer metric should move and on which workload; on every other
workload the prediction is *no change*.  A per-layer metric reads 0 on
a workload that bypasses its layer.
"""

from __future__ import annotations

from typing import NamedTuple

from .workloads import SQL_CLASSES


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float    # share of the parent's median it may worsen by


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str
    simulated: bool = False


#: The bounds are what this host can resolve, not what one would wish:
#: its CPU runs at one of two speeds 28% apart and changes every few
#: seconds, so ten runs of one commit spread 4-15% (quartile distance
#: over median) on every timing.  A bound below the spread would call
#: noise a regression.
#:
#: The tail is p90, not p95: in sql_mixed p95 sits on the boundary
#: between 3% of ops that take ~100 ms (group-bys) and 17% that take
#: ~30 ms, and it spread 16-19% between runs of one commit where p90
#: spread 6-10%.  p95 and p99 are per-layer metrics, without a bound.
END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("qps", "1/s", "higher", 0.25),
    EndToEnd("p50_ms", "ms", "lower", 0.25),
    EndToEnd("p90_ms", "ms", "lower", 0.25),
    EndToEnd("cpu_ms_per_op", "ms", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.15),
    EndToEnd("bytes_per_row", "B/row", "lower", 0.01),
)

_POINT = "p50_ms on sql_point"
_SCAN = "p50_ms, p90_ms, qps on sql_scan"
_MIXED = "qps, p90_ms on sql_mixed"
_WRITE = "setup_s on every workload; p90_ms on embedded_write_read"
_LIVE = "p90_ms on embedded_write_read"

PER_LAYER = (
    # server (TCP against the server child; 0 on embedded_write_read)
    Layer("server.ping_rtt_us", "us", "lower", "floor under " + _POINT),
    Layer("server.overhead_ms", "ms", "lower", _POINT),
    Layer("server.protocol.encode_us", "us", "lower", _POINT),
    Layer("server.protocol.decode_us", "us", "lower", _POINT),
    Layer("server.frame_bytes_per_op", "B", "lower", _POINT),
    Layer("server.result_encode_ms", "ms", "lower", "p90_ms on sql_mixed"),
    Layer("server.p95_ms", "ms", "lower", "tail beyond p90_ms"),
    Layer("server.p99_ms", "ms", "lower", "tail beyond p90_ms"),
    *(Layer(f"server.class.{c}.p50_ms", "ms", "lower",
            "p50_ms/p90_ms of the workloads that draw this class")
      for c in SQL_CLASSES),
    Layer("server.point_p50_ms", "ms", "lower", "p50_ms on sql_mixed"),
    Layer("server.point_p95_ms", "ms", "lower",
          "head-of-line blocking: " + _MIXED),
    Layer("server.scan_p50_ms", "ms", "lower", "p90_ms on sql_mixed"),
    Layer("server.client_scaling", "ratio", "higher", _MIXED),
    # sql
    Layer("sql.parse_us", "us", "lower", _POINT + " (<= 3% of it)"),
    Layer("sql.bind_us", "us", "lower", _POINT + " (<= 3% of it)"),
    # query: planner
    Layer("query.plan_us", "us", "lower", _POINT),
    Layer("query.prune_ratio", "ratio", "higher", _POINT),
    Layer("query.rows_scanned_per_matched", "ratio", "lower", _SCAN),
    Layer("query.codegen_compile_us", "us", "lower", _POINT),
    # query: executor / codegen
    Layer("query.execute_ms", "ms", "lower", _SCAN),
    Layer("query.kernel_ms", "ms", "lower", _SCAN),
    Layer("query.dispatch_ms", "ms", "lower", _POINT),
    Layer("query.compiled_share", "ratio", "higher", _SCAN),
    Layer("query.decoded_elements_per_op", "count", "lower", _SCAN),
    # runtime
    Layer("runtime.pool_dispatch_us", "us", "lower", "floor under " + _POINT),
    Layer("runtime.pool_speedup", "ratio", "higher", _SCAN + "; " + _MIXED),
    # core
    *(Layer(f"core.unpack_melems_s.{bits}", "Melem/s", "higher", _SCAN)
      for bits in (8, 20, 32, 33)),
    Layer("core.ingest_mrows_s", "Mrows/s", "higher", _WRITE),
    Layer("core.pack_melems_s", "Melem/s", "higher", _WRITE),
    *(Layer(f"core.codec_decode_melems_s.{c}", "Melem/s", "higher", _SCAN)
      for c in ("dict", "rle", "delta")),
    *(Layer(f"core.encoded_count_melems_s.{c}", "Melem/s", "higher", _SCAN)
      for c in ("dict", "rle", "delta")),
    Layer("core.zonemap_build_ms", "ms", "lower", _WRITE),
    Layer("core.scatter_kops_s", "kops/s", "higher", _WRITE),
    Layer("core.decode_vs_floor", "ratio", "lower", _SCAN),
    Layer("floor.numpy_scan_ms", "ms", "lower", "floor under " + _SCAN),
    # cluster
    Layer("cluster.plan_us", "us", "lower", _POINT),
    Layer("cluster.execute_ms", "ms", "lower", "p90_ms on sql_scan"),
    Layer("cluster.bytes_shipped_per_op", "B", "lower", _POINT),
    Layer("cluster.rpcs_per_op", "count", "lower", _POINT),
    Layer("cluster.fanout_s_simulated", "s", "lower",
          "nothing measured: modelled max(node)+network time", True),
    # live (embedded_write_read only)
    Layer("live.migrate_s", "s", "lower", _LIVE),
    Layer("live.step_ms_p95", "ms", "lower", _LIVE),
    Layer("live.chunks_per_s", "1/s", "higher", _LIVE),
    Layer("live.reader_slowdown", "ratio", "lower",
          "p50_ms on embedded_write_read"),
    Layer("live.read_p95_ms", "ms", "lower", "tail beyond " + _LIVE),
    # obs
    Layer("obs.tracing_overhead_ratio", "ratio", "lower", _POINT),
    Layer("obs.bench_trace_overhead_ratio", "ratio", "lower",
          "nothing: the cost of the benchmark's own spans (budget < 1.03 "
          "on sql_point)"),
    # the traced pass's own accounting
    Layer("trace.stage_coverage", "ratio", "higher",
          "nothing: share of a replayed request inside a named stage"),
    Layer("trace.overhead_share", "ratio", "lower",
          "nothing: (server.overhead_ms + pool dispatch) / TCP p50; "
          "predicted >= 0.70 on sql_point, < 0.05 on sql_scan"),
)

#: Counts that must repeat exactly for one commit and one seed.
EXACT = ("bytes_per_row", "query.prune_ratio",
         "query.rows_scanned_per_matched", "query.compiled_share",
         "query.decoded_elements_per_op", "server.frame_bytes_per_op",
         "cluster.bytes_shipped_per_op", "cluster.rpcs_per_op")
