"""Cluster scale-out: the selective aggregate sharded over 1/2/4 nodes.

A 10M-row table is hash-partitioned on its key across a simulated
cluster and a selective (~10%) range-filter + SUM/COUNT aggregate runs
distributed: the plan is shipped to every owning shard (a few hundred
bytes), each node scans only its own rows with the compiled morsel
kernels, and partials merge in shard order.

Two execution shapes per node count:

* **serial** — shards execute one after another on the coordinator
  (the scale-out baseline: same work, no parallelism);
* **fan-out** — one node-local execution per node.  The container this
  runs in has one core, so the fan-out wall-clock is *modeled* the way
  every other simulated-hardware number in this repo is: each shard's
  node-local time is measured in isolation (best of 3) and the fanned
  critical path is their max plus the priced network time — exactly
  what N independent machines would give.

Alongside the curve the benchmark records the wire accounting: bytes
shipped per query at each node count, and at 1/10th the data volume —
plan shipping means the bytes are a function of the *plan*, not the
data, which is the paper's argument for language-independent shared
arrays stretched to a rack.

Run as a script it writes ``benchmarks/results/cluster.txt`` plus
machine-readable ``benchmarks/results/BENCH_cluster.json``; under
``pytest --benchmark-only`` it times the same distributed path at
reduced scale.  Acceptance: fan-out throughput >= 1.7x at 2 nodes and
>= 3x at 4 nodes, with bytes shipped per query flat in data volume.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.cluster import ShardedTable, cluster_of
from repro.query import Query, in_range
from repro.query.executor import execute

try:
    from .common import RESULTS_DIR, emit
except ImportError:  # pragma: no cover - script mode
    from common import RESULTS_DIR, emit

N_SCRIPT = 10_000_000
N_PYTEST = 200_000
KEY_BITS = 32
NODE_COUNTS = (1, 2, 4)
JSON_NAME = "BENCH_cluster.json"


def _data(n, seed=7):
    rng = np.random.default_rng(seed)
    return {
        # Uniform random keys: hash shards stay balanced and zone maps
        # cannot prune, so the scan itself is what scales.
        "k": rng.integers(0, 1 << KEY_BITS, n).astype(np.uint64),
        "v": rng.integers(0, 1 << 20, n).astype(np.uint64),
    }


def _predicate():
    span = 1 << KEY_BITS
    return int(span * 0.45), int(span * 0.55)


def _shard(data, n_nodes):
    return ShardedTable.from_arrays(
        data, key="k", cluster=cluster_of(n_nodes), mode="hash"
    )


def _query(table, lo, hi):
    return Query(table).where(in_range("k", lo, hi)).sum("v").count()


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _measure(data, n_nodes, lo, hi, expected):
    """One point on the curve: per-node times + verified wire stats."""
    table = _shard(data, n_nodes)
    dplan = _query(table, lo, hi).plan()
    node_times = {
        shard.node_id: _best_of(
            lambda sid=shard.shard_id: execute(dplan.shard_plans[sid])
        )
        for shard in dplan.participants
    }
    # One real distributed execution for the results + wire accounting
    # (and one fanned run to prove the two paths merge identically).
    serial_result = dplan.execute(fan_out=False)
    fanned_result = dplan.execute(fan_out=True)
    assert serial_result.aggregates == expected, n_nodes
    assert fanned_result.aggregates == expected, n_nodes
    shipment = fanned_result.shipment
    network_s = shipment.network_time_s
    return {
        "nodes": n_nodes,
        "node_seconds": {str(k): round(v, 6)
                         for k, v in sorted(node_times.items())},
        "serial_seconds": round(sum(node_times.values()) + network_s, 6),
        "fanout_seconds": round(max(node_times.values()) + network_s, 6),
        "network_seconds": round(network_s, 9),
        "bytes_shipped": shipment.bytes_shipped,
        "rpcs": shipment.rpcs,
    }


def report(n=N_SCRIPT):
    """Return (text report, machine-readable result dict)."""
    data = _data(n)
    lo, hi = _predicate()
    mask = (data["k"] >= lo) & (data["k"] < hi)
    expected = {
        "sum(v)": int(data["v"][mask].astype(object).sum()),
        "count(*)": int(mask.sum()),
    }

    points = [_measure(data, n_nodes, lo, hi, expected)
              for n_nodes in NODE_COUNTS]
    base = points[0]["fanout_seconds"]

    results = {
        "benchmark": "cluster",
        "rows": n,
        "key_bits": KEY_BITS,
        "selectivity": round(expected["count(*)"] / n, 4),
        "mode": "hash",
        "repeats": 3,
        "points": [],
    }
    lines = [
        f"selective aggregate (SUM+COUNT, ~10% of {n:,} rows) sharded "
        f"by hash(k):",
        "",
        f"{'nodes':>5} {'serial (ms)':>12} {'fan-out (ms)':>13} "
        f"{'Mrows/s':>8} {'speedup':>8} {'bytes/query':>12} {'rpcs':>5}",
    ]
    for point in points:
        speedup = base / point["fanout_seconds"]
        point["rows_per_s"] = round(n / point["fanout_seconds"], 1)
        point["speedup_vs_1_node"] = round(speedup, 3)
        results["points"].append(point)
        lines.append(
            f"{point['nodes']:>5} {point['serial_seconds'] * 1e3:>12.1f} "
            f"{point['fanout_seconds'] * 1e3:>13.1f} "
            f"{n / point['fanout_seconds'] / 1e6:>8.1f} "
            f"{speedup:>7.2f}x {point['bytes_shipped']:>12,} "
            f"{point['rpcs']:>5}"
        )

    # Wire bytes vs data volume: rerun the 4-node point at 1/10th the
    # rows.  Plan shipping means the frames carry the plan text and the
    # finalized partials — the byte count must not follow the data.
    small = _data(n // 10)
    small_mask = (small["k"] >= lo) & (small["k"] < hi)
    small_point = _measure(small, 4, lo, hi, {
        "sum(v)": int(small["v"][small_mask].astype(object).sum()),
        "count(*)": int(small_mask.sum()),
    })
    big_bytes = results["points"][-1]["bytes_shipped"]
    ratio = big_bytes / small_point["bytes_shipped"]
    results["bytes_shipped_10x_data_ratio"] = round(ratio, 3)
    results["speedup_2_nodes"] = results["points"][1]["speedup_vs_1_node"]
    results["speedup_4_nodes"] = results["points"][2]["speedup_vs_1_node"]

    lines += [
        "",
        f"bytes shipped per query, 4 nodes: {big_bytes:,} B at {n:,} "
        f"rows vs {small_point['bytes_shipped']:,} B at {n // 10:,} "
        f"rows ({ratio:.2f}x for 10x the data - plans ship, data "
        f"doesn't)",
        "",
        f"acceptance: {results['speedup_2_nodes']:.2f}x at 2 nodes "
        f"(target >= 1.7x), {results['speedup_4_nodes']:.2f}x at 4 "
        f"nodes (target >= 3x)",
        "",
        "fan-out wall-clock is modeled as max(per-node measured time) "
        "+ priced network",
        "time: the container is single-core, so concurrent shard "
        "threads interleave;",
        "each node-local time is measured in isolation, exactly what "
        "N machines give.",
    ]
    return "\n".join(lines), results


# -- pytest-benchmark entry points ------------------------------------

@pytest.fixture(scope="module")
def bench_data():
    data = _data(N_PYTEST)
    lo, hi = _predicate()
    mask = (data["k"] >= lo) & (data["k"] < hi)
    expected = {
        "sum(v)": int(data["v"][mask].astype(object).sum()),
        "count(*)": int(mask.sum()),
    }
    return data, lo, hi, expected


@pytest.mark.parametrize("n_nodes", NODE_COUNTS)
def test_distributed_aggregate(benchmark, bench_data, n_nodes):
    data, lo, hi, expected = bench_data
    table = _shard(data, n_nodes)
    q = _query(table, lo, hi)
    assert benchmark(lambda: q.run().aggregates) == expected


def test_single_shard_node_local(benchmark, bench_data):
    data, lo, hi, expected = bench_data
    dplan = _query(_shard(data, 4), lo, hi).plan()
    shard_id = dplan.participants[0].shard_id
    result = benchmark(lambda: execute(dplan.shard_plans[shard_id]))
    assert result.aggregates["0:sum(v)"] <= expected["sum(v)"]


def main() -> None:
    text, results = report()
    emit("Cluster scale-out - distributed selective aggregate",
         text, "cluster.txt")
    path = os.path.join(RESULTS_DIR, JSON_NAME)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
