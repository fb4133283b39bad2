"""Partitioning functions and the ShardedTable construction contract."""

import numpy as np
import pytest

from repro.cluster import (
    ShardedTable,
    cluster_of,
    hash_partition,
    range_bounds,
    range_partition,
)


def build(rows=8_000, n_nodes=2, mode="hash", seed=7, **kwargs):
    rng = np.random.default_rng(seed)
    data = {
        "k": rng.integers(0, 1 << 20, rows).astype(np.uint64),
        "v": rng.integers(0, 1 << 12, rows).astype(np.uint64),
    }
    table = ShardedTable.from_arrays(
        data, key="k", cluster=cluster_of(n_nodes), mode=mode, **kwargs
    )
    return table, data


class TestHashPartition:
    def test_pure_and_stable(self):
        keys = np.arange(10_000, dtype=np.uint64)
        a = hash_partition(keys, 4)
        b = hash_partition(keys, 4)
        np.testing.assert_array_equal(a, b)
        assert a.min() >= 0 and a.max() < 4

    def test_same_key_same_shard(self):
        keys = np.array([42, 42, 42, 7, 7], dtype=np.uint64)
        assignment = hash_partition(keys, 8)
        assert len(set(assignment[:3].tolist())) == 1
        assert len(set(assignment[3:].tolist())) == 1

    def test_consecutive_keys_spread_not_stripe(self):
        # The splitmix64 finalizer must avalanche: consecutive integers
        # should land roughly uniformly, not round-robin or clumped.
        counts = np.bincount(
            hash_partition(np.arange(40_000, dtype=np.uint64), 4),
            minlength=4,
        )
        assert counts.min() > 40_000 / 4 * 0.9

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            hash_partition(np.zeros(1, dtype=np.uint64), 0)


class TestRangePartition:
    def test_equi_depth_bounds(self):
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 1 << 32, 20_000).astype(np.uint64)
        bounds = range_bounds(keys, 4)
        assert len(bounds) == 3
        assert bounds == sorted(bounds)
        assignment, _ = range_partition(keys, 4, bounds)
        counts = np.bincount(assignment, minlength=4)
        assert counts.min() > 20_000 / 4 * 0.9

    def test_bounds_define_half_open_ranges(self):
        keys = np.array([0, 5, 9, 10, 11, 20], dtype=np.uint64)
        assignment, bounds = range_partition(keys, 2, bounds=[10])
        # shard 0 owns [.., 10), shard 1 owns [10, ..): a key equal to
        # the cut point belongs to the upper shard.
        np.testing.assert_array_equal(assignment, [0, 0, 0, 1, 1, 1])
        assert bounds == [10]

    def test_empty_input_is_safe(self):
        assert range_bounds(np.empty(0, dtype=np.uint64), 4) == [0, 0, 0]
        assignment, _ = range_partition(np.empty(0, dtype=np.uint64), 4)
        assert assignment.size == 0

    def test_rejects_bad_bounds(self):
        keys = np.arange(10, dtype=np.uint64)
        with pytest.raises(ValueError):
            range_partition(keys, 3, bounds=[5])
        with pytest.raises(ValueError):
            range_partition(keys, 3, bounds=[7, 3])


class TestShardedTable:
    @pytest.mark.parametrize("mode", ["hash", "range"])
    @pytest.mark.parametrize("n_nodes", [1, 2, 4])
    def test_partitioning_loses_no_rows(self, mode, n_nodes):
        table, data = build(mode=mode, n_nodes=n_nodes)
        assert table.n_rows == data["k"].size
        assert sum(s.n_rows for s in table.shards) == data["k"].size
        gathered = table.gather_arrays()
        for name in ("k", "v"):
            assert np.array_equal(np.sort(gathered[name]),
                                  np.sort(data[name]))

    def test_rows_keep_relative_order_within_shards(self):
        table, data = build(mode="hash")
        for shard in table.shards:
            mask = table.assignment == shard.shard_id
            np.testing.assert_array_equal(
                shard.table.column("k").to_numpy(), data["k"][mask]
            )

    def test_gather_offsets_are_cumulative(self):
        table, _ = build(n_nodes=4)
        offset = 0
        for shard in table.shards:
            assert shard.offset == offset
            offset += shard.n_rows

    def test_gather_twin_matches_gather_order(self):
        table, _ = build(mode="range")
        twin = table.gather()
        gathered = table.gather_arrays()
        np.testing.assert_array_equal(twin.column("k").to_numpy(),
                                      gathered["k"])
        np.testing.assert_array_equal(twin.column("v").to_numpy(),
                                      gathered["v"])

    def test_replicated_columns_get_per_node_replicas(self):
        table, _ = build(replicate=("v",))
        assert table.replicated_columns == ("v",)
        for shard in table.shards:
            placement = shard.table.column("v").placement.describe()
            assert placement.startswith("replicated")

    def test_codec_applies_within_every_shard(self):
        table, _ = build(codecs={"v": "dict"})
        for shard in table.shards:
            assert shard.table.column("v").codec == "dict"
        assert table.gather().column("v").codec == "dict"

    def test_owners_override_places_shards(self):
        table, _ = build(n_nodes=2, owners=[1, 1])
        assert {s.node_id for s in table.shards} == {1}

    def test_construction_errors(self):
        data = {"k": np.arange(4, dtype=np.uint64)}
        cluster = cluster_of(2)
        with pytest.raises(KeyError):
            ShardedTable.from_arrays(data, key="missing", cluster=cluster)
        with pytest.raises(KeyError):
            ShardedTable.from_arrays(data, key="k", cluster=cluster,
                                     replicate=("missing",))
        with pytest.raises(ValueError):
            ShardedTable.from_arrays(data, key="k", cluster=cluster,
                                     mode="round-robin")
        with pytest.raises(ValueError):
            ShardedTable.from_arrays(data, key="k", cluster=cluster,
                                     owners=[0])
        with pytest.raises(ValueError):
            ShardedTable.from_arrays(
                {"k": np.arange(4, dtype=np.uint64),
                 "v": np.arange(5, dtype=np.uint64)},
                key="k", cluster=cluster,
            )

    def test_smart_table_read_surface(self):
        table, data = build()
        assert set(table.column_names) == {"k", "v"}
        assert "k" in table and "missing" not in table
        assert len(table) == data["k"].size
        assert table["k"].bits == table.column("k").bits
        assert table["k"].zone_map is not None  # shard 0's column
