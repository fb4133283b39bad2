"""Sharded multi-node execution on a simulated cluster.

``repro.cluster`` generalizes the single-box machine model one level
up: a :class:`Cluster` of N simulated NUMA machines joined by a
:class:`NetworkSpec`, a :class:`ShardedTable` hash- or range-
partitioned across the nodes' allocators, and a distributed executor
that plans once, ships the plan to every owning shard, runs the
existing morsel executor node-locally, and merges partials in shard
order — bit-identical to the same plan on the single-node gather twin.

Quick start::

    from repro.cluster import ShardedTable, cluster_of

    cluster = cluster_of(2)
    table = ShardedTable.from_arrays(
        {"k": keys, "v": values}, key="k", cluster=cluster,
    )
    result = table.query().where(col("k") >= 100).sum("v").run()
"""

from .executor import (
    DistributedPlan,
    Shipment,
    execute_distributed,
    plan_distributed,
    shipped_specs,
)
from .spec import (
    Cluster,
    ClusterNode,
    ClusterSpec,
    NetworkSpec,
    NodeSpec,
    cluster_of,
    network_10gbe,
    ship_counters,
)
from .table import (
    Shard,
    ShardedTable,
    hash_partition,
    range_bounds,
    range_partition,
)
from .wire import (
    encode_payload,
    expected_result_payload,
    frame_bytes,
    plan_payload,
    result_payload,
)

__all__ = [
    "Cluster",
    "ClusterNode",
    "ClusterSpec",
    "DistributedPlan",
    "NetworkSpec",
    "NodeSpec",
    "Shard",
    "ShardedTable",
    "Shipment",
    "cluster_of",
    "encode_payload",
    "execute_distributed",
    "expected_result_payload",
    "frame_bytes",
    "hash_partition",
    "network_10gbe",
    "plan_distributed",
    "plan_payload",
    "range_bounds",
    "range_partition",
    "result_payload",
    "ship_counters",
    "shipped_specs",
]
