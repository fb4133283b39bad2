"""Serving a sharded catalog: the ``tables`` op lists it, SQL fans out
transparently, and the ``metrics`` op exposes the per-node cluster
counters with node-id labels."""

import numpy as np
import pytest

from repro.server import SmartArrayServer
from repro.server.catalog import demo_sharded_catalog
from repro.server.client import connect

ROWS = 20_000
N_NODES = 2


@pytest.fixture(scope="module")
def server():
    catalog = demo_sharded_catalog(rows=ROWS, n_nodes=N_NODES)
    with SmartArrayServer(catalog, port=0) as srv:
        yield srv


@pytest.fixture()
def conn(server):
    with connect(port=server.port) as c:
        yield c


def oracle_arrays():
    rng = np.random.default_rng(42)
    return {
        "ts": np.sort(rng.integers(0, 1 << 32, ROWS)).astype(np.uint64),
        "region": rng.integers(0, 12, ROWS).astype(np.uint64),
        "amount": rng.integers(0, 1 << 20, ROWS).astype(np.uint64),
    }


class TestTablesOp:
    def test_lists_sharded_table_like_any_other(self, conn):
        events = conn.tables()["events"]
        assert events["rows"] == ROWS
        assert sorted(events["columns"]) == ["amount", "region", "ts"]


class TestDistributedSql:
    def test_sql_over_the_wire_fans_out_and_matches_oracle(self, conn):
        data = oracle_arrays()
        lo = 1 << 30
        result = conn.sql(
            f"SELECT SUM(amount), COUNT(*) FROM events WHERE ts >= {lo}"
        )
        mask = data["ts"] >= lo
        assert result.aggregates["sum(amount)"] == int(
            data["amount"][mask].astype(object).sum()
        )
        assert result.aggregates["count(*)"] == int(mask.sum())

    def test_group_by_over_the_wire(self, conn):
        data = oracle_arrays()
        result = conn.sql(
            "SELECT region, SUM(amount) FROM events GROUP BY region"
        )
        for key in np.unique(data["region"]):
            gmask = data["region"] == key
            assert result.groups[int(key)]["sum(amount)"] == int(
                data["amount"][gmask].astype(object).sum()
            )


class TestPerNodeMetrics:
    def test_cluster_counters_carry_node_labels(self, conn):
        conn.sql("SELECT COUNT(*) FROM events")
        text = conn.metrics()
        for node in range(N_NODES):
            assert f'cluster_rpcs{{node="{node}"}}' in text
            assert (f'cluster_bytes_shipped{{direction="plan",'
                    f'node="{node}"}}') in text
            assert (f'cluster_bytes_shipped{{direction="result",'
                    f'node="{node}"}}') in text
        assert "# TYPE repro_cluster_bytes_shipped counter" in text
        assert "repro_cluster_queries" in text
