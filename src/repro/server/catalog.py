"""Thread-safe table catalog the wire server queries against.

A :class:`Catalog` maps table names to live :class:`SmartTable`
instances.  Registration is explicit — the server exposes exactly the
tables the embedding process hands it — and reads return the live
objects, so a :class:`~repro.live.LiveMigrator` migrating a registered
column under load is immediately visible to in-flight SQL (morsel
generation pinning keeps each morsel torn-free, exactly as for fluent
queries).

:func:`demo_catalog` builds the events-shaped table the CLI demos use
(sorted timestamps for hard zone-map pruning, region/amount payload
columns), so ``python -m repro serve`` is runnable with zero setup.
"""

from __future__ import annotations

import threading
from typing import Dict, List

from ..core.table import SmartTable


class Catalog:
    """Named, thread-safe mapping of table name → :class:`SmartTable`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tables: Dict[str, SmartTable] = {}

    def register(self, name: str, table: SmartTable) -> SmartTable:
        """Expose ``table`` under ``name`` (replacing any previous)."""
        if not isinstance(name, str) or not name:
            raise ValueError(f"table name must be a non-empty str, got {name!r}")
        with self._lock:
            self._tables[name] = table
        return table

    def unregister(self, name: str) -> None:
        with self._lock:
            self._tables.pop(name, None)

    def get(self, name: str) -> SmartTable:
        with self._lock:
            try:
                return self._tables[name]
            except KeyError:
                available = ", ".join(sorted(self._tables)) or "(none)"
                raise KeyError(
                    f"unknown table {name!r}; catalog has: {available}"
                ) from None

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._tables)

    def tables(self) -> Dict[str, SmartTable]:
        """Point-in-time snapshot for the SQL binder."""
        with self._lock:
            return dict(self._tables)

    def schema(self) -> Dict[str, Dict[str, object]]:
        """JSON-shaped description of every registered table."""
        out: Dict[str, Dict[str, object]] = {}
        for name, table in self.tables().items():
            out[name] = {
                "rows": table.n_rows,
                "columns": {
                    col: {
                        "bits": table[col].bits,
                        "placement": str(table[col].placement),
                    }
                    for col in table.column_names
                },
            }
        return out

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._tables

    def __len__(self) -> int:
        with self._lock:
            return len(self._tables)


def demo_catalog(rows: int = 100_000, seed: int = 42) -> Catalog:
    """The CLI demos' events table, served as catalog entry ``events``."""
    import numpy as np

    rng = np.random.default_rng(seed)
    data = {
        "ts": np.sort(rng.integers(0, 1 << 32, rows)).astype(np.uint64),
        "region": rng.integers(0, 12, rows).astype(np.uint64),
        "amount": rng.integers(0, 1 << 20, rows).astype(np.uint64),
    }
    table = SmartTable.from_arrays(data, replicated=True)
    catalog = Catalog()
    catalog.register("events", table)
    return catalog


def demo_sharded_catalog(rows: int = 100_000, seed: int = 42,
                         n_nodes: int = 2, mode: str = "range") -> Catalog:
    """The same events table, sharded on ``ts`` across ``n_nodes``
    simulated nodes and served as ``events`` — SQL against it fans out
    transparently through the distributed planner."""
    import numpy as np

    from ..cluster import ShardedTable, cluster_of

    rng = np.random.default_rng(seed)
    data = {
        "ts": np.sort(rng.integers(0, 1 << 32, rows)).astype(np.uint64),
        "region": rng.integers(0, 12, rows).astype(np.uint64),
        "amount": rng.integers(0, 1 << 20, rows).astype(np.uint64),
    }
    cluster = cluster_of(n_nodes)
    table = ShardedTable.from_arrays(
        data, key="ts", cluster=cluster, mode=mode,
        replicate=("amount",),
    )
    catalog = Catalog()
    catalog.register("events", table)
    return catalog
