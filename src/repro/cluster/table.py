"""ShardedTable: one logical table partitioned across cluster nodes.

A :class:`ShardedTable` hash- or range-partitions a columnar table on a
key column.  Each shard is a completely ordinary
:class:`~repro.core.table.SmartTable` whose columns live on the owning
node's :class:`~repro.numa.allocator.NumaAllocator` — so every
single-node mechanism (bit packing, codecs, zone maps, per-socket
replicas, live migration, generation pinning) applies *within* a shard
unchanged, and the cluster layer only adds partitioning and the
scatter/gather protocol on top.

Per-node replication of hot columns generalizes the paper's per-socket
replication: a column in ``replicate`` is allocated
``Placement.replicated()`` on *each* node, so that node's workers read
socket-locally — two nested levels of the same locality trick.

Determinism contract: partitioning is a pure function of the key
values (``hash_partition`` / ``range_partition``), rows keep their
original relative order within a shard, and the **gather order** —
shard 0's rows, then shard 1's, … — defines the global row numbering.
:meth:`gather` materializes that single-node twin, which is what the
bit-identical-results guarantee is stated (and checked) against.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import bitpack
from ..core.allocate import allocate
from ..core.table import SmartTable
from ..core.zonemap import ZoneMap
from .spec import Cluster

#: splitmix64's finalizer: an invertible 64-bit mix with full avalanche,
#: so consecutive keys spread across shards instead of striping.
_MIX_M1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_M2 = np.uint64(0x94D049BB133111EB)


def hash_partition(values: np.ndarray, n_shards: int) -> np.ndarray:
    """Shard id per row: ``splitmix64(key) mod n_shards``.

    Pure and stable: the same key always lands on the same shard, for
    any caller, forever — routing and checking both rely on it.
    """
    if n_shards < 1:
        raise ValueError(f"need >= 1 shard, got {n_shards}")
    v = np.ascontiguousarray(values, dtype=np.uint64).copy()
    with np.errstate(over="ignore"):
        v ^= v >> np.uint64(30)
        v *= _MIX_M1
        v ^= v >> np.uint64(27)
        v *= _MIX_M2
        v ^= v >> np.uint64(31)
    return (v % np.uint64(n_shards)).astype(np.int64)


def range_bounds(values: np.ndarray, n_shards: int) -> List[int]:
    """``n_shards - 1`` cut points splitting the key space evenly by
    *row count* (equi-depth): shard ``i`` owns keys in
    ``[bounds[i-1], bounds[i])``.  Computed from a sorted copy, so the
    bounds are a pure function of the data."""
    if n_shards < 1:
        raise ValueError(f"need >= 1 shard, got {n_shards}")
    values = np.ascontiguousarray(values, dtype=np.uint64)
    if values.size == 0:
        return [0] * (n_shards - 1)
    srt = np.sort(values)
    return [
        int(srt[min((i + 1) * values.size // n_shards, values.size - 1)])
        for i in range(n_shards - 1)
    ]


def range_partition(values: np.ndarray, n_shards: int,
                    bounds: Optional[Sequence[int]] = None
                    ) -> Tuple[np.ndarray, List[int]]:
    """Shard id per row by key range; returns ``(assignment, bounds)``."""
    values = np.ascontiguousarray(values, dtype=np.uint64)
    if bounds is None:
        bounds = range_bounds(values, n_shards)
    bounds = list(bounds)
    if len(bounds) != n_shards - 1:
        raise ValueError(
            f"{n_shards} shards need {n_shards - 1} bounds, got {len(bounds)}"
        )
    if bounds != sorted(bounds):
        raise ValueError(f"range bounds must be non-decreasing: {bounds}")
    assignment = np.searchsorted(
        np.asarray(bounds, dtype=np.uint64), values, side="right"
    ).astype(np.int64)
    return assignment, bounds


class Shard:
    """One shard: a plain SmartTable on its owning node."""

    def __init__(self, shard_id: int, node_id: int, table: SmartTable,
                 offset: int) -> None:
        self.shard_id = shard_id
        self.node_id = node_id
        self.table = table
        #: First global (gather-order) row index this shard owns.
        self.offset = offset

    @property
    def n_rows(self) -> int:
        return self.table.n_rows

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Shard {self.shard_id} node={self.node_id} "
                f"rows={self.n_rows} offset={self.offset}>")


class ShardedTable:
    """A SmartTable partitioned on a key column across cluster nodes.

    Duck-types the read surface of :class:`~repro.core.table.
    SmartTable` (``n_rows``, ``column_names``, ``column``, ``query``),
    so the fluent builder and the SQL binder work
    on it unmodified; :meth:`distributed_plan` is the hook
    :meth:`repro.query.logical.Query.plan` dispatches through.
    """

    def __init__(self, cluster: Cluster, key: str, mode: str,
                 shards: List[Shard], assignment: np.ndarray,
                 replicated_columns: Tuple[str, ...] = (),
                 bounds: Optional[List[int]] = None,
                 codecs: Optional[Dict[str, str]] = None) -> None:
        if mode not in ("hash", "range"):
            raise ValueError(f"mode must be 'hash' or 'range', got {mode!r}")
        if not shards:
            raise ValueError("a sharded table needs at least one shard")
        self.cluster = cluster
        self.key = key
        self.mode = mode
        self.shards = shards
        #: Shard id of every original (pre-partitioning) row.
        self.assignment = assignment
        self.replicated_columns = tuple(replicated_columns)
        self.bounds = bounds
        self._codecs = dict(codecs or {})
        self._length = sum(s.n_rows for s in shards)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_arrays(
        cls,
        data: Dict[str, np.ndarray],
        key: str,
        cluster: Cluster,
        mode: str = "hash",
        replicate: Sequence[str] = (),
        codecs: Optional[Dict[str, str]] = None,
        compress: bool = True,
        owners: Optional[Sequence[int]] = None,
        n_shards: Optional[int] = None,
    ) -> "ShardedTable":
        """Partition raw arrays on ``key`` and place one shard per node.

        ``owners`` overrides shard → node ownership (the placement
        planner's output); by default shard ``i`` lives on node ``i``.
        ``replicate`` names hot columns allocated with per-socket
        replicas on their node.  ``codecs`` applies per column within
        every shard, exactly as for a single-node table.
        """
        if key not in data:
            raise KeyError(f"shard key {key!r} not in columns {sorted(data)}")
        for name in replicate:
            if name not in data:
                raise KeyError(f"replicate column {name!r} not in table")
        codecs = dict(codecs or {})
        n_shards = n_shards if n_shards is not None else cluster.n_nodes
        if owners is None:
            owners = [i % cluster.n_nodes for i in range(n_shards)]
        owners = [cluster.spec.validate_node(o) for o in owners]
        if len(owners) != n_shards:
            raise ValueError(
                f"{n_shards} shards need {n_shards} owners, got {len(owners)}"
            )

        keys = np.ascontiguousarray(data[key], dtype=np.uint64)
        bounds: Optional[List[int]] = None
        if mode == "hash":
            assignment = hash_partition(keys, n_shards)
        elif mode == "range":
            assignment, bounds = range_partition(keys, n_shards)
        else:
            raise ValueError(f"mode must be 'hash' or 'range', got {mode!r}")

        arrays = {
            name: np.ascontiguousarray(values, dtype=np.uint64)
            for name, values in data.items()
        }
        lengths = {v.size for v in arrays.values()}
        if len(lengths) != 1:
            raise ValueError(
                f"columns must have equal lengths, got {sorted(lengths)}"
            )

        shards: List[Shard] = []
        offset = 0
        for shard_id in range(n_shards):
            mask = assignment == shard_id
            node = cluster.node(owners[shard_id])
            columns = {}
            for name, values in arrays.items():
                sub = np.ascontiguousarray(values[mask])
                bits = bitpack.max_bits_needed(sub) if compress else 64
                column = columns[name] = allocate(
                    sub.size,
                    replicated=name in replicate,
                    bits=bits,
                    values=sub,
                    allocator=node.allocator,
                    codec=codecs.get(name, "bitpack"),
                )
                column.zone_map = ZoneMap.from_values(column, sub)
            table = SmartTable(columns)
            shards.append(Shard(shard_id, node.node_id, table, offset))
            offset += table.n_rows
        return cls(cluster, key, mode, shards, assignment,
                   replicated_columns=tuple(replicate), bounds=bounds,
                   codecs=codecs)

    # -- SmartTable read surface (duck-typed) -------------------------------

    @property
    def n_rows(self) -> int:
        return self._length

    @property
    def column_names(self) -> List[str]:
        return self.shards[0].table.column_names

    def column(self, name: str):
        """Shard 0's column — schema checks only (names, bits, codec).

        Per-shard data must go through the shards; the fluent builder
        and SQL binder use this solely to fail fast on unknown names.
        """
        return self.shards[0].table.column(name)

    def __getitem__(self, name: str):
        return self.column(name)

    def __contains__(self, name: str) -> bool:
        return name in self.shards[0].table

    def __len__(self) -> int:
        return self._length

    def query(self) -> "Query":  # noqa: F821
        """Start a fluent query; it fans out transparently at plan time."""
        from ..query import Query

        return Query(self)

    # -- distributed planning hook -------------------------------------------

    def distributed_plan(self, query, **knobs):
        """Called by :meth:`Query.plan` instead of the single-node
        planner; returns a :class:`~repro.cluster.executor.
        DistributedPlan`."""
        from .executor import plan_distributed

        return plan_distributed(query, self, **knobs)

    # -- gather twin ---------------------------------------------------------

    def gather_arrays(self) -> Dict[str, np.ndarray]:
        """Every column decoded and concatenated in gather order."""
        out: Dict[str, np.ndarray] = {}
        for name in self.column_names:
            pieces = [shard.table.column(name).to_numpy()
                      for shard in self.shards]
            out[name] = (np.concatenate(pieces) if pieces
                         else np.empty(0, dtype=np.uint64))
        return out

    def gather(self, allocator=None, compress: bool = True) -> SmartTable:
        """The single-node twin: same rows, gather order, same codecs.

        Every distributed result must be bit-identical to the same plan
        run against this table — the cluster profile executes both on
        every query op.
        """
        return SmartTable.from_arrays(
            self.gather_arrays(), compress=compress, allocator=allocator,
            codecs=self._codecs or None,
        )

    # -- accounting / introspection -------------------------------------------

    def storage_bytes(self) -> int:
        return sum(s.table.storage_bytes() for s in self.shards)

    def physical_bytes(self) -> int:
        return sum(s.table.physical_bytes() for s in self.shards)

    def describe(self) -> str:
        reps = (f", replicas: {', '.join(self.replicated_columns)}"
                if self.replicated_columns else "")
        lines = [
            f"ShardedTable: {self._length:,} rows, {self.mode}({self.key}) "
            f"across {len(self.shards)} shards / "
            f"{self.cluster.n_nodes} nodes{reps}"
        ]
        for shard in self.shards:
            lines.append(
                f"  shard {shard.shard_id} @ node {shard.node_id}: "
                f"{shard.n_rows:,} rows "
                f"[{shard.offset}, {shard.offset + shard.n_rows})"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<ShardedTable rows={self._length} key={self.key!r} "
                f"mode={self.mode} shards={len(self.shards)}>")
