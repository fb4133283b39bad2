"""Seeded inputs and the three table registrations every workload uses.

The program under test only ever sees the generated arrays (as ``.npy``
files for the server child, in memory for the embedded workload); the
seed stays on the benchmark's side.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Tuple

import numpy as np

from repro.cluster import ShardedTable, cluster_of
from repro.core.table import SmartTable

ROWS = 1_000_000
SMOKE_ROWS = 100_000
TS_SPAN = 1 << 32
REGIONS = 12
AMOUNT_BITS = 20
COLUMNS = ("ts", "region", "amount")
TABLES = ("events", "events_enc", "events_sharded")
SHARD_NODES = 4


def generate(seed: int, rows: int) -> Dict[str, np.ndarray]:
    """The ``events`` columns: sorted 32-bit ``ts`` (so zone maps
    prune), ``region`` < 12, 20-bit ``amount``."""
    rng = np.random.default_rng(seed)
    return {
        "ts": np.sort(rng.integers(0, TS_SPAN, rows)).astype(np.uint64),
        "region": rng.integers(0, REGIONS, rows).astype(np.uint64),
        "amount": rng.integers(0, 1 << AMOUNT_BITS, rows).astype(np.uint64),
    }


def save(data: Dict[str, np.ndarray], directory: str) -> None:
    for name in COLUMNS:
        np.save(os.path.join(directory, f"{name}.npy"), data[name])


def load(directory: str) -> Dict[str, np.ndarray]:
    return {name: np.load(os.path.join(directory, f"{name}.npy"))
            for name in COLUMNS}


def build_tables(data: Dict[str, np.ndarray]) -> Tuple[dict, float]:
    """Register the data three ways; returns ``(tables, build_seconds)``.

    Only library defaults beyond what defines each registration: a later
    PR that changes a default must show up in the numbers.
    """
    t0 = time.perf_counter()
    events = SmartTable.from_arrays(data, replicated=True)
    events.build_zone_map("ts")
    enc = SmartTable.from_arrays(
        data, replicated=True, codecs={"ts": "delta", "region": "dict"})
    enc.build_zone_map("ts")
    sharded = ShardedTable.from_arrays(
        data, key="ts", cluster=cluster_of(SHARD_NODES), mode="range",
        replicate=("amount",))
    tables = {"events": events, "events_enc": enc, "events_sharded": sharded}
    return tables, time.perf_counter() - t0


def storage_bytes(tables: dict) -> int:
    return sum(tables[name].storage_bytes() for name in TABLES)
