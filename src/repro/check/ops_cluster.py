"""Cluster ops: the query shapes of :mod:`~repro.check.ops_query` run
distributed over the case's table, sharded across simulated nodes.

The table is sharded across the case-index cluster grid (1/2/4 nodes,
hash or range partitioning, replicas on or off).  Every op checks the
distributed result against the oracle *and* against the single-node
gather twin, the exact ``cluster.rpcs`` / ``cluster.bytes_shipped``
deltas priced from oracle-side wire payloads, and each run's decoded
chunks per column.  ``cluster_migrate_query`` does all of that while a
live migration steps one shard's value column on a second thread.
"""

from __future__ import annotations

from typing import Dict, NamedTuple

import numpy as np

from ..adapt.selector import Configuration
from ..cluster import (ShardedTable, cluster_of, expected_result_payload,
                       frame_bytes, shipped_specs)
from ..core import bitpack
from ..live import LiveMigrator, MigrationBudget
from ..obs.registry import registry as _obs_registry
from . import oracle as orc
from .generator import cluster_grid
from .ops_migrate import check_completed, placement_for, race
from .ops_query import (Shape, bind_checked, compare_result, predict_decode,
                        query_shape, shape_zones, synopsis_ready,
                        _render_sql_op)
from .runner import Divergence, fmt

#: Counter names the cluster accounting check predicts exactly;
#: everything else under ``cluster.`` (histograms, timings) is
#: simulated-time flavoured and checked by unit tests instead.
_METRICS = ("cluster.queries", "cluster.rpcs", "cluster.bytes_shipped",
            "cluster.failed_queries")


class _Cluster(NamedTuple):
    """A case's sharded table, its gather twin, and the gather-order
    oracle columns every expectation is computed from."""

    table: ShardedTable
    nodes: object
    twin: object
    columns: Dict[str, np.ndarray]

    def shard_columns(self):
        """``(shard, its gather-order columns)`` per non-empty shard."""
        for shard in self.table.shards:
            if shard.n_rows:
                rows = slice(shard.offset, shard.offset + shard.n_rows)
                yield shard, {name: values[rows]
                              for name, values in self.columns.items()}


def _cluster(r) -> _Cluster:
    if r.cluster is None:
        n_nodes, mode, replicate = cluster_grid(r.case.index)
        values = {"k": r.oracle.values, "v": r.companion_values()}
        nodes = cluster_of(n_nodes)
        table = ShardedTable.from_arrays(
            values, key="k", cluster=nodes, mode=mode,
            replicate=("v",) if replicate else ())
        # Gather order: shard 0's rows (original relative order), then
        # shard 1's, ... — the global numbering every row result is
        # stated in.
        order = np.concatenate([
            np.nonzero(table.assignment == s.shard_id)[0]
            for s in table.shards
        ]).astype(np.int64)
        r.cluster = _Cluster(table, nodes, table.gather(allocator=r.allocator),
                             {name: v[order] for name, v in values.items()})
    return r.cluster


def _expected_wire(cl: _Cluster, q, shape: Shape,
                   runs: int) -> Dict[str, float]:
    """Exact registry deltas ``runs`` distributed runs must charge: one
    rpc + one plan frame + one result frame per owning shard.  The
    result frame is priced from the oracle's per-shard answer under the
    shipped aggregate specs; the plan frame is rebuilt from the
    *logical* plan text (only the scan row count differs per shard),
    independently of the executor."""
    shipped, _ = shipped_specs(q)
    n_cols = len(cl.table.column_names)
    expected: Dict[str, float] = {"cluster.queries": runs}
    for shard, columns in cl.shard_columns():
        kind, value = orc.expected_result(q, columns, shape.mask(columns),
                                          shipped)
        if kind == "rows":
            payload = expected_result_payload(
                shard.shard_id, kind, rows=value[0], columns=value[1])
        else:
            payload = expected_result_payload(
                shard.shard_id, kind,
                **{"aggregates" if kind == "aggregate" else kind: value})
        lines = q.describe().splitlines()
        lines[0] = f"scan {shard.n_rows:,} rows x {n_cols} columns"
        plan = {"op": "execute", "shard": shard.shard_id,
                "plan": "\n".join(lines)}
        node = shard.node_id
        for key, per_run in (
            (f"cluster.rpcs{{node={node}}}", 1),
            (f"cluster.bytes_shipped{{direction=plan,node={node}}}",
             frame_bytes(plan)),
            (f"cluster.bytes_shipped{{direction=result,node={node}}}",
             frame_bytes(payload)),
        ):
            expected[key] = expected.get(key, 0) + runs * per_run
    return expected


def _check_decode(op, cl: _Cluster, q, shape: Shape, res, twin,
                  superchunk: int) -> None:
    """Per-column decoded and synopsis-answered chunks and covered
    morsels of every shard's run and of the twin's, against
    :func:`~repro.check.ops_query.predict_decode` on that table's zones.

    Ingest gives every column of a shard and of the twin a zone map, at
    the width its largest value needs, and a migration keeps it.
    """
    runs = [(f"shard {shard.shard_id}", res.plan.shard_stats[shard.shard_id],
             columns) for shard, columns in cl.shard_columns()]
    runs.append(("twin", twin.stats, cl.columns))
    for which, stats, columns in runs:
        oracles = {}
        for name, values in columns.items():
            oracles[name] = orc.OracleArray(values.size, 64)
            oracles[name].fill(values)
        zones = shape_zones(shape, orc.chunks_for(columns["k"].size),
                            oracles)
        widths = {name: orc.bits_needed(values)
                  for name, values in columns.items()}
        _, covered, decoded, answered = predict_decode(
            q, zones, superchunk, synopsis_ready(q, widths))
        expected = (decoded, covered, {name: answered for name in decoded})
        actual = (stats.decoded_chunks, stats.morsels_covered,
                  stats.synopsis_chunks)
        if actual != expected:
            raise Divergence(
                "accounting",
                f"{op.name}: {which} (decoded_chunks, morsels_covered, "
                f"synopsis_chunks) = {actual}, oracle predicts {expected}")


def _differential(r, op, shape: Shape, q, fan: int, runs: int = 1) -> None:
    """The cluster profile's core check, for one query shape:

    1. the distributed result equals the oracle's answer;
    2. the single-node gather twin equals the oracle's answer;
    3. distributed == twin, field for field (bit-identity);
    4. ``cluster.rpcs`` / ``cluster.bytes_shipped`` deltas equal the
       oracle-predicted wire frames exactly, per node and direction;
    5. without a LIMIT, both runs decode exactly the oracle-predicted
       chunks per column (:func:`_check_decode`).
    """
    cl = _cluster(r)
    sc = r.spec.superchunk
    expected = orc.expected_result(q, cl.columns, shape.mask(cl.columns))
    exp_delta = _expected_wire(cl, q, shape, runs)

    reg = _obs_registry()
    before = reg.snapshot()
    for _ in range(runs):
        res = q.plan(morsel=sc).execute(fan_out=bool(fan))
        compare_result(r, f"{op.name}.distributed", res, expected)
    actual = {
        key: value for key, value in reg.delta(before).items()
        if key.partition("{")[0].partition("__")[0] in _METRICS
    }
    if actual != exp_delta:
        diff = {key: (exp_delta.get(key, 0), actual.get(key, 0))
                for key in set(actual) | set(exp_delta)
                if actual.get(key, 0) != exp_delta.get(key, 0)}
        raise Divergence(
            "cluster", f"{op.name}: wire accounting (expected, actual) = "
                       f"{diff}")

    twin = shape.query(cl.twin).run(morsel=sc)
    compare_result(r, f"{op.name}.twin", twin, expected)
    for field in ("aggregates", "groups"):
        if getattr(res, field) != getattr(twin, field):
            raise Divergence(
                "cluster",
                f"{op.name}: distributed {field} "
                f"{fmt(getattr(res, field))} != twin "
                f"{fmt(getattr(twin, field))}")
    if res.kind == "rows":
        if not np.array_equal(res.rows, twin.rows):
            raise Divergence(
                "cluster",
                f"{op.name}: distributed rows {fmt(res.rows)} != "
                f"twin rows {fmt(twin.rows)}")
        for name in res.columns:
            if not np.array_equal(res.columns[name], twin.columns[name]):
                raise Divergence(
                    "cluster",
                    f"{op.name}: distributed column {name!r} != twin")
    if q.limit_rows is None:
        _check_decode(op, cl, q, shape, res, twin, sc)
        if res.stats.rows_matched != twin.stats.rows_matched:
            raise Divergence(
                "cluster",
                f"{op.name}: distributed matched "
                f"{res.stats.rows_matched} rows, twin matched "
                f"{twin.stats.rows_matched}")


def _shape_op(r, op, before) -> None:
    """The query shapes, plus ``cluster_limit``: a row query with a
    pushed-down LIMIT."""
    fan = op.args[-1]
    if op.name == "cluster_limit":
        lo, hi, limit = op.args[:3]
        shape = Shape(lambda q: q.select("v").limit(limit), (("k", lo, hi),))
    else:
        shape = query_shape(op.name, op.args)
    _differential(r, op, shape, shape.query(_cluster(r).table), fan)
    # Cluster ops read only the sharded copies and the twin — the case
    # array's own counters must not move at all.
    r.check_stats(before, {}, op.name)


def _sql(r, op, before) -> None:
    """``sql_filter_sum``'s statement, bound against the sharded table."""
    lo, hi, fan, style = op.args
    shape = query_shape("sql_filter_sum", op.args)
    table = _cluster(r).table
    sql = _render_sql_op("sql_filter_sum", (lo, hi), style)
    q = bind_checked(op.name, sql, table, shape.query(table))
    _differential(r, op, shape, q, fan)
    r.check_stats(before, {}, op.name)


def _migrate_query(r, op, before) -> None:
    """A live migration of one shard's value column stepped on a thread
    while distributed queries fan out from this one: results and wire
    accounting must be untouched."""
    lo, hi, pidx, socket, budget = op.args
    cl = _cluster(r)
    shape = query_shape("query_filter_sum", op.args)
    shard, columns = next(cl.shard_columns())
    target = Configuration(placement_for(pidx, socket),
                           bitpack.max_bits_needed(columns["v"]))
    migrator = LiveMigrator(cl.nodes.node(shard.node_id).allocator)
    migration = migrator.start(
        shard.table.column("v"), target,
        budget=MigrationBudget(max_chunks_per_step=budget))
    race(migration, lambda: _differential(
        r, op, shape, shape.query(cl.table), fan=1, runs=3))
    check_completed(op.name, migration)
    r.check_stats(before, {}, op.name)


HANDLERS = {
    "cluster_filter_sum": _shape_op,
    "cluster_filter_count": _shape_op,
    "cluster_filter_minmax": _shape_op,
    "cluster_and_count": _shape_op,
    "cluster_or_select": _shape_op,
    "cluster_group_sum": _shape_op,
    "cluster_limit": _shape_op,
    "cluster_sql": _sql,
    "cluster_migrate_query": _migrate_query,
}
