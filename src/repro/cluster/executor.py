"""Distributed query execution: plan once, scatter, execute, gather.

The coordinator takes one logical :class:`~repro.query.logical.Query`
against a :class:`~repro.cluster.table.ShardedTable` and

1. **plans once** — the logical plan is rebound per shard and planned
   *physically* per shard (each shard prunes against its own zone maps
   and storage generations); the shipped request is the logical plan,
   a few hundred bytes regardless of data volume;
2. **scatters** — one RPC per owning shard, charged through
   ``cluster.rpcs`` / ``cluster.bytes_shipped`` counters and the
   network's :class:`~repro.numa.counters.PerfCounters` pricing;
3. **executes node-locally** — each shard runs the unmodified morsel
   executor (compiled kernels, generation pinning, the lot) on its
   node;
4. **gathers deterministically** — partial aggregates / group states /
   limit prefixes merge **in shard order**, with the same primitives
   the thread pool's morsel-order merge uses, so results are
   bit-identical to the same plan on the single-node gather twin.

The one semantic transform is ``mean``: a shard must ship the
*partials* (sum, count), never a finalized ratio — averaging averages
is wrong under skew.  :func:`shipped_specs` rewrites each ``mean`` into
a sum/count pair before shipping and the coordinator performs the
single ``sum / count`` division at the end, the exact division the
single-node executor performs, on the exact same integers.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..obs.registry import registry as _obs_registry
from ..obs.trace import trace
from ..query.executor import (
    QueryCancelled,
    QueryTimeout,
    _finalize_agg,
    _merge_agg,
    _new_agg_partials,
    execute,
)
from ..query.logical import AggSpec, Query
from ..query.planner import PhysicalPlan, plan_query
from ..query.stats import QueryResult, QueryStats
from .spec import ship_counters
from .table import Shard, ShardedTable
from .wire import frame_bytes, plan_payload, result_payload


def shipped_specs(query: Query) -> Tuple[List[AggSpec], List[Tuple]]:
    """The aggregate list a shard runs, plus the merge recipe.

    Every spec maps to itself except ``mean``, which becomes a
    ``(sum, count)`` pair.  Shipped names are slot-prefixed so two
    identical aggregates never collide in a shard's result dict.
    Returns ``(shipped, recipe)`` where each recipe entry is either
    ``(kind, slot)`` or ``("mean", sum_slot, count_slot)`` per original
    spec, in order.
    """
    shipped: List[AggSpec] = []
    recipe: List[Tuple] = []
    for spec in query.aggregates:
        if spec.kind == "mean":
            si = len(shipped)
            shipped.append(AggSpec("sum", spec.column,
                                   f"{si}:sum({spec.column})"))
            ci = len(shipped)
            shipped.append(AggSpec("count", None, f"{ci}:count(*)"))
            recipe.append(("mean", si, ci))
        else:
            slot = len(shipped)
            shipped.append(AggSpec(
                spec.kind, spec.column,
                f"{slot}:{spec.kind}({spec.column or '*'})",
            ))
            recipe.append((spec.kind, slot))
    return shipped, recipe


def _finalize_distributed(partials: List[object], orig_specs: List[AggSpec],
                          recipe: List[Tuple]) -> Dict[str, object]:
    """Finalize merged shipped partials under the *original* names."""
    out: Dict[str, object] = {}
    for spec, entry in zip(orig_specs, recipe):
        if entry[0] == "mean":
            s, c = partials[entry[1]], partials[entry[2]]
            out[spec.name] = s / c if c else None
        else:
            out[spec.name] = partials[entry[1]]
    return out


def _rebind(query: Query, shard_table, shipped: List[AggSpec]) -> Query:
    """The logical plan, bound to one shard's table.

    Field-by-field copy (not the fluent methods): the predicate was
    already validated against the coordinator's schema, and every shard
    has the identical schema by construction.
    """
    q = Query(shard_table)
    q.predicate = query.predicate
    q.aggregates = list(shipped)
    q.group_key = query.group_key
    q.projection = query.projection
    q.limit_rows = query.limit_rows
    return q


class Shipment:
    """What one distributed execution moved over the (simulated) wire."""

    def __init__(self, bytes_shipped: int, rpcs: int,
                 network_time_s: float, counters) -> None:
        self.bytes_shipped = bytes_shipped
        self.rpcs = rpcs
        self.network_time_s = network_time_s
        self.counters = counters

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Shipment {self.bytes_shipped} B over {self.rpcs} rpcs, "
                f"{self.network_time_s * 1e3:.3f} ms simulated>")


class DistributedPlan:
    """One physical plan per owning shard, plus the scatter envelope.

    Duck-types the slice of :class:`~repro.query.planner.PhysicalPlan`
    the rest of the system touches (``query``, ``table``, ``explain()``,
    ``execute()``, aggregate chunk counts), so a
    :class:`~repro.query.stats.QueryResult` carrying one is
    indistinguishable downstream.
    """

    def __init__(self, query: Query, table: ShardedTable,
                 shard_plans: Dict[int, PhysicalPlan],
                 shard_queries: Dict[int, Query],
                 participants: List[Shard],
                 shipped: List[AggSpec], recipe: List[Tuple]) -> None:
        self.query = query
        self.table = table
        self.shard_plans = shard_plans
        self.shard_queries = shard_queries
        self.participants = participants
        self.shipped = shipped
        self.recipe = recipe
        #: Scatter frame bytes per participating shard (plan shipping).
        self.plan_bytes: Dict[int, int] = {
            shard.shard_id: frame_bytes(
                plan_payload(shard_queries[shard.shard_id], shard.shard_id)
            )
            for shard in participants
        }
        #: Filled in by :func:`execute_distributed`.
        self.shard_stats: Dict[int, QueryStats] = {}
        self.last_shipment: Optional[Shipment] = None

    # -- aggregate plan facts (summed over shards) ---------------------------

    @property
    def chunks_total(self) -> int:
        return sum(p.chunks_total for p in self.shard_plans.values())

    @property
    def chunks_candidate(self) -> int:
        return sum(p.chunks_candidate for p in self.shard_plans.values())

    @property
    def chunks_pruned(self) -> int:
        return sum(p.chunks_pruned for p in self.shard_plans.values())

    @property
    def morsels(self) -> List[Tuple[int, int]]:
        out: List[Tuple[int, int]] = []
        for plan in self.shard_plans.values():
            out.extend(plan.morsels)
        return out

    def explain(self) -> str:
        lines = ["== distributed plan =="]
        lines += ["  " + l for l in self.table.describe().splitlines()]
        lines.append(
            f"  scatter: {len(self.participants)} of "
            f"{len(self.table.shards)} shards participate "
            f"(plan shipped once per shard)"
        )
        for shard in self.participants:
            plan = self.shard_plans[shard.shard_id]
            lines.append(
                f"  shard {shard.shard_id} @ node {shard.node_id}: "
                f"chunks: {plan.chunks_total} total, "
                f"{plan.chunks_candidate} candidate, "
                f"{plan.chunks_pruned} pruned; "
                f"{len(plan.morsels)} morsels "
                f"({plan.covered_morsels.size} covered), "
                f"plan frame {self.plan_bytes[shard.shard_id]} B"
            )
        lines.append(
            f"  gather: merge in shard order "
            f"(bit-identical to the single-node twin)"
        )
        if self.participants:
            first = self.participants[0]
            lines.append(
                f"== shard {first.shard_id} physical plan =="
            )
            lines += [
                "  " + l
                for l in self.shard_plans[first.shard_id].explain()
                .splitlines()
            ]
        return "\n".join(lines)

    def execute(self, pool=None, distribution: str = "dynamic",
                cancel=None, timeout_s: Optional[float] = None,
                fan_out: Optional[bool] = None) -> QueryResult:
        return execute_distributed(
            self, pool=pool, distribution=distribution, cancel=cancel,
            timeout_s=timeout_s, fan_out=fan_out,
        )


def plan_distributed(query: Query, table: ShardedTable,
                     **knobs) -> DistributedPlan:
    """Plan ``query`` against every owning (non-empty) shard.

    ``knobs`` are the single-node planner's (``morsel``, ``prune``,
    ``pool``, …) and apply uniformly to every shard —
    the plan is decided *once*, then shipped.
    """
    query.validate()
    shipped, recipe = shipped_specs(query)
    participants = [s for s in table.shards if s.n_rows > 0]
    shard_queries: Dict[int, Query] = {}
    shard_plans: Dict[int, PhysicalPlan] = {}
    for shard in participants:
        q = _rebind(query, shard.table, shipped)
        shard_queries[shard.shard_id] = q
        shard_plans[shard.shard_id] = plan_query(q, **knobs)
    return DistributedPlan(query, table, shard_plans, shard_queries,
                           participants, shipped, recipe)


def _merged_stats(dplan: DistributedPlan, fan_out: bool, pool,
                  wall_time_s: float) -> QueryStats:
    """Shard stats summed into one coordinator-level QueryStats."""
    stats = QueryStats(distribution="scatter-gather")
    for shard in dplan.participants:
        s = dplan.shard_stats[shard.shard_id]
        stats.morsels_total += s.morsels_total
        stats.morsels_pruned += s.morsels_pruned
        stats.morsels_executed += s.morsels_executed
        stats.morsels_skipped += s.morsels_skipped
        stats.morsels_covered += s.morsels_covered
        stats.chunks_total += s.chunks_total
        stats.chunks_candidate += s.chunks_candidate
        stats.rows_scanned += s.rows_scanned
        stats.rows_matched += s.rows_matched
        stats.est_instructions += s.est_instructions
        for name, n in s.decoded_chunks.items():
            stats.decoded_chunks[name] = stats.decoded_chunks.get(name, 0) + n
        for name, n in s.synopsis_chunks.items():
            stats.synopsis_chunks[name] = (
                stats.synopsis_chunks.get(name, 0) + n)
        for name, n in s.decoded_elements.items():
            stats.decoded_elements[name] = (
                stats.decoded_elements.get(name, 0) + n
            )
        for name, bits in s._bits.items():
            stats._bits[name] = max(stats._bits.get(name, 0), bits)
    stats.n_workers = (
        len(dplan.participants) if fan_out
        else (pool.n_workers if pool is not None else 1)
    )
    stats.wall_time_s = wall_time_s
    return stats


def execute_distributed(dplan: DistributedPlan, pool=None,
                        distribution: str = "dynamic",
                        cancel=None, timeout_s: Optional[float] = None,
                        fan_out: Optional[bool] = None) -> QueryResult:
    """Scatter ``dplan``, execute node-locally, gather in shard order.

    ``fan_out=None`` (auto) and ``fan_out=False`` execute the shards
    one after another on the calling thread; ``fan_out=True`` starts
    one coordinator thread per participating shard.  Auto is sequential
    because the simulated nodes share this process's GIL: the threaded
    path measured *slower* (point 0.72-0.76 vs 0.33-0.35 ms, 50 %-span
    scan 5.0-5.4 vs 4.3-4.7 ms on four shards) and inflated every shard's
    ``wall_time_s`` with the others' contention.  It stays as the twin
    the sequential path is checked against, until shards are processes.
    Fanned-out shards each run the morsel executor serially on their
    node — ``pool`` (a single box's worker pool) only applies to the
    sequential path.  Merge order is shard order either way, so the two
    paths are bit-identical; ``stats.n_workers`` says which ran (the
    shard count when fanned out, the pool's workers or 1 otherwise).
    """
    reg = _obs_registry()
    query = dplan.query
    parts = dplan.participants
    fan_out = bool(fan_out)
    t0 = time.perf_counter()

    with trace("cluster.execute", shards=len(parts),
               nodes=dplan.table.cluster.n_nodes,
               fan_out=str(fan_out)):
        # -- scatter: charge one plan frame per owning shard ---------------
        total_bytes = 0
        for shard in parts:
            nbytes = dplan.plan_bytes[shard.shard_id]
            total_bytes += nbytes
            reg.counter("cluster.rpcs", node=str(shard.node_id)).add(1)
            reg.counter("cluster.bytes_shipped", node=str(shard.node_id),
                        direction="plan").add(nbytes)

        # -- node-local execution ------------------------------------------
        results: Dict[int, QueryResult] = {}
        errors: List[BaseException] = []
        errors_lock = threading.Lock()

        def run_shard(shard: Shard) -> None:
            try:
                results[shard.shard_id] = execute(
                    dplan.shard_plans[shard.shard_id],
                    pool=None if fan_out else pool,
                    distribution=distribution,
                    cancel=cancel, timeout_s=timeout_s,
                )
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                with errors_lock:
                    errors.append(exc)

        if fan_out and len(parts) > 1:
            threads = [
                threading.Thread(target=run_shard, args=(shard,),
                                 name=f"cluster-node{shard.node_id}")
                for shard in parts
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        else:
            for shard in parts:
                run_shard(shard)
                if errors:
                    break
        if errors:
            reg.counter("cluster.failed_queries").add(1)
            for exc in errors:
                if isinstance(exc, QueryTimeout):
                    raise exc
            for exc in errors:
                if isinstance(exc, QueryCancelled):
                    raise exc
            raise errors[0]

        # -- gather: charge one result frame per shard ----------------------
        for shard in parts:
            nbytes = frame_bytes(
                result_payload(shard.shard_id, results[shard.shard_id])
            )
            total_bytes += nbytes
            reg.counter("cluster.bytes_shipped", node=str(shard.node_id),
                        direction="result").add(nbytes)
            dplan.shard_stats[shard.shard_id] = results[shard.shard_id].stats

        network = dplan.table.cluster.network
        messages = 2 * len(parts)  # request + response per shard
        network_time_s = network.transfer_time_s(total_bytes, messages)
        shipment = Shipment(
            bytes_shipped=total_bytes, rpcs=len(parts),
            network_time_s=network_time_s,
            counters=ship_counters(network, total_bytes, messages,
                                   label="cluster scatter/gather"),
        )
        dplan.last_shipment = shipment
        reg.counter("cluster.queries").add(1)
        reg.histogram("cluster.network_seconds").observe(network_time_s)

        stats = _merged_stats(dplan, fan_out, pool,
                              time.perf_counter() - t0)

        # -- deterministic shard-order merge --------------------------------
        result = _merge(dplan, results, stats)
        result.shipment = shipment
        return result


def _merge(dplan: DistributedPlan, results: Dict[int, QueryResult],
           stats: QueryStats) -> QueryResult:
    query = dplan.query
    shipped = dplan.shipped
    parts = dplan.participants

    if query.aggregates:
        if query.group_key is not None:
            group_total: Dict[int, List[object]] = {}
            for shard in parts:
                res = results[shard.shard_id]
                for key in sorted(res.groups):
                    vals = [res.groups[key][spec.name] for spec in shipped]
                    into = group_total.get(key)
                    if into is None:
                        into = group_total[key] = _new_agg_partials(shipped)
                    _merge_agg(into, vals, shipped)
            groups = {
                key: _finalize_distributed(group_total[key],
                                           query.aggregates, dplan.recipe)
                for key in sorted(group_total)
            }
            return QueryResult("groups", stats, dplan, groups=groups)
        total = _new_agg_partials(shipped)
        for shard in parts:
            res = results[shard.shard_id]
            vals = [res.aggregates[spec.name] for spec in shipped]
            _merge_agg(total, vals, shipped)
        return QueryResult(
            "aggregate", stats, dplan,
            aggregates=_finalize_distributed(total, query.aggregates,
                                             dplan.recipe),
        )

    # Row query: shard-local indices rebase onto the gather order; shard
    # order concatenation is globally ascending because shard i's rows
    # all precede shard i+1's in the gather numbering.
    idx_all: List[np.ndarray] = []
    val_all: Dict[str, List[np.ndarray]] = {
        name: [] for name in (query.projection or ())
    }
    for shard in parts:
        res = results[shard.shard_id]
        idx_all.append(res.rows + np.int64(shard.offset))
        for name, pieces in val_all.items():
            pieces.append(res.columns[name])
    rows = (np.concatenate(idx_all) if idx_all
            else np.empty(0, dtype=np.int64))
    columns = {
        name: (np.concatenate(pieces) if pieces
               else np.empty(0, dtype=np.uint64))
        for name, pieces in val_all.items()
    }
    if query.limit_rows is not None and rows.size > query.limit_rows:
        rows = rows[:query.limit_rows]
        columns = {name: vals[:query.limit_rows]
                   for name, vals in columns.items()}
    return QueryResult("rows", stats, dplan, rows=rows, columns=columns)
