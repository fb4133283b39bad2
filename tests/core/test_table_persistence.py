"""Tests for SmartTable and smart-array persistence."""

import numpy as np
import pytest

from repro.core import SmartTable, allocate, load_array, save_array
from repro.numa import NumaAllocator, machine_2x8_haswell


@pytest.fixture
def allocator():
    return NumaAllocator(machine_2x8_haswell())


@pytest.fixture
def table(allocator):
    rng = np.random.default_rng(0)
    data = {
        "quantity": rng.integers(1, 100, size=1000, dtype=np.uint64),
        "price": rng.integers(10, 10_000, size=1000, dtype=np.uint64),
        "region": rng.integers(0, 8, size=1000, dtype=np.uint64),
    }
    return SmartTable.from_arrays(data, allocator=allocator), data


class TestTableConstruction:
    def test_shape(self, table):
        t, data = table
        assert t.n_rows == 1000
        assert len(t) == 1000
        assert set(t.column_names) == {"quantity", "price", "region"}
        assert "price" in t and "missing" not in t

    def test_per_column_compression(self, table):
        t, _ = table
        assert t["quantity"].bits == 7
        assert t["price"].bits <= 14
        assert t["region"].bits == 3

    def test_uncompressed_option(self, allocator):
        t = SmartTable.from_arrays(
            {"a": np.arange(5)}, compress=False, allocator=allocator
        )
        assert t["a"].bits == 64

    def test_placement_forwarded(self, allocator):
        t = SmartTable.from_arrays(
            {"a": np.arange(10)}, replicated=True, allocator=allocator
        )
        assert t["a"].replicated

    def test_validation(self, allocator):
        with pytest.raises(ValueError):
            SmartTable({})
        with pytest.raises(ValueError):
            SmartTable.from_arrays(
                {"a": np.arange(3), "b": np.arange(4)}, allocator=allocator
            )

    def test_unknown_column(self, table):
        t, _ = table
        with pytest.raises(KeyError):
            t.column("bogus")


class TestQueries:
    def test_sum_exact(self, table):
        t, data = table
        assert t.sum("price") == int(data["price"].astype(object).sum())

    def test_min_max_mean(self, table):
        t, data = table
        assert t.min("price") == int(data["price"].min())
        assert t.max("price") == int(data["price"].max())
        assert t.mean("price") == pytest.approx(float(data["price"].mean()))

    def test_filter_then_aggregate(self, table):
        t, data = table
        rows = t.filter("quantity", lambda q: q > 50)
        expected_rows = np.nonzero(data["quantity"] > 50)[0]
        np.testing.assert_array_equal(rows, expected_rows)
        assert t.sum("price", rows) == int(
            data["price"][expected_rows].astype(object).sum()
        )

    def test_filter_bad_predicate(self, table):
        t, _ = table
        with pytest.raises(ValueError):
            t.filter("price", lambda p: p[:5] > 0)

    def test_empty_selection_aggregates(self, table):
        t, _ = table
        none = np.array([], dtype=np.int64)
        assert t.sum("price", none) == 0
        with pytest.raises(ValueError):
            t.min("price", none)
        with pytest.raises(ValueError):
            t.mean("price", none)

    def test_group_by_sum(self, table):
        t, data = table
        result = t.group_by_sum("region", "price")
        for region in np.unique(data["region"]):
            expected = int(
                data["price"][data["region"] == region].astype(object).sum()
            )
            assert result[int(region)] == expected

    @pytest.mark.parametrize("key_bits,value_bits", [
        (4, 64), (16, 41), (17, 40), (64, 64), (1, 1),
    ])
    def test_group_by_sum_exact_at_every_width(self, key_bits, value_bits):
        # The compiled group_by query: wide keys, sums past 2**64, and
        # a table whose low half is narrow.
        rng = np.random.default_rng([key_bits, value_bits])
        n = 10_000
        keys = rng.integers(0, 6, n, dtype=np.uint64) << np.uint64(
            key_bits - min(key_bits, 3))
        values = np.uint64((1 << value_bits) - 1) - rng.integers(
            0, 2, n, dtype=np.uint64)
        keys[:n // 2] &= np.uint64(1)
        values[:n // 2] &= np.uint64(0xFF)
        t = SmartTable.from_arrays({"k": keys, "v": values})
        expected = {}
        for k, v in zip(keys.tolist(), values.tolist()):
            expected[k] = expected.get(k, 0) + v
        result = t.group_by_sum("k", "v")
        assert list(result.items()) == sorted(expected.items())
        assert all(type(total) is int for total in result.values())

    def test_filter_range_matches_filter(self, table):
        t, data = table
        fast = t.filter_range("price", 1000, 5000)
        slow = t.filter("price", lambda p: (p >= 1000) & (p < 5000))
        np.testing.assert_array_equal(fast, slow)

    def test_filter_range_with_zone_map(self, table):
        t, data = table
        t.build_zone_map("price")
        fast = t.filter_range("price", 1000, 5000)
        slow = t.filter("price", lambda p: (p >= 1000) & (p < 5000))
        np.testing.assert_array_equal(np.sort(fast), np.sort(slow))

    def test_select_projection_shares_columns(self, table):
        t, _ = table
        proj = t.select(["price"])
        assert proj.column_names == ["price"]
        assert proj["price"] is t["price"]

    def test_describe_and_footprint(self, table):
        t, _ = table
        text = t.describe()
        assert "1,000 rows" in text and "quantity" in text
        assert t.storage_bytes() < 3 * 1000 * 8  # compression won
        assert t.physical_bytes() >= t.storage_bytes()


class TestPersistence:
    @pytest.mark.parametrize("bits", [10, 32, 33, 64])
    def test_roundtrip(self, bits, tmp_path, allocator):
        rng = np.random.default_rng(bits)
        values = rng.integers(0, 2**bits, size=500, dtype=np.uint64)
        sa = allocate(500, bits=bits, values=values, allocator=allocator)
        path = str(tmp_path / "array.npz")
        save_array(path, sa)
        loaded = load_array(path, allocator=allocator)
        assert loaded.bits == bits
        np.testing.assert_array_equal(loaded.to_numpy(), values)

    def test_load_with_new_placement(self, tmp_path, allocator):
        sa = allocate(100, bits=20, values=np.arange(100),
                      allocator=allocator)
        path = str(tmp_path / "a.npz")
        save_array(path, sa)
        loaded = load_array(path, replicated=True, allocator=allocator)
        assert loaded.n_replicas == 2
        np.testing.assert_array_equal(
            loaded.to_numpy(replica=1), np.arange(100, dtype=np.uint64)
        )

    def test_corrupt_length_rejected(self, tmp_path, allocator):
        sa = allocate(100, bits=20, values=np.arange(100),
                      allocator=allocator)
        path = str(tmp_path / "a.npz")
        save_array(path, sa)
        import numpy as np2

        with np2.load(path) as data:
            np2.savez(path, format=data["format"], words=data["words"][:-1],
                      length=data["length"], bits=data["bits"])
        with pytest.raises(ValueError, match="corrupt"):
            load_array(path, allocator=allocator)

    def test_unknown_format_version(self, tmp_path, allocator):
        sa = allocate(10, bits=8, values=np.arange(10), allocator=allocator)
        path = str(tmp_path / "a.npz")
        save_array(path, sa)
        with np.load(path) as data:
            np.savez(path, format=np.int64(99), words=data["words"],
                     length=data["length"], bits=data["bits"])
        with pytest.raises(ValueError, match="format"):
            load_array(path, allocator=allocator)

    def test_zero_length_array(self, tmp_path, allocator):
        sa = allocate(0, bits=8, allocator=allocator)
        path = str(tmp_path / "empty.npz")
        save_array(path, sa)
        loaded = load_array(path, allocator=allocator)
        assert len(loaded) == 0


def _wide_values(rng, n, bits):
    """``n`` uint64 values below ``2**bits`` whose maximum needs ``bits``."""
    raw = (rng.integers(0, 1 << 63, n, dtype=np.uint64) << np.uint64(1)) \
        | rng.integers(0, 2, n, dtype=np.uint64)
    values = raw >> np.uint64(64 - bits)
    if n:
        values[n // 2] |= np.uint64(1 << (bits - 1))
    return values


class TestEagerSurface:
    """Every eager read equals NumPy / Python ints, plain and encoded."""

    @pytest.mark.parametrize("codecs", [None, {"ts": "delta",
                                               "region": "dict"}],
                             ids=["plain", "encoded"])
    @pytest.mark.parametrize("n", [0, 1, 63, 65, 4_097, 70_000])
    @pytest.mark.parametrize("bits", [1, 20, 33, 63, 64])
    def test_matches_numpy(self, codecs, n, bits):
        rng = np.random.default_rng([n, bits])
        data = {
            "ts": np.sort(_wide_values(rng, n, bits)),
            # A handful of distinct keys at the full width.
            "region": _wide_values(rng, 7, bits)[rng.integers(0, 7, n)],
            "amount": _wide_values(rng, n, bits),
        }
        t = SmartTable.from_arrays(data, codecs=codecs)
        for name, values in data.items():
            exact = values.astype(object)
            assert t.sum(name) == int(exact.sum())
            if n:
                assert t.min(name) == int(values.min())
                assert t.max(name) == int(values.max())
                assert t.mean(name) == int(exact.sum()) / n
            else:
                for aggregate in (t.min, t.max, t.mean):
                    with pytest.raises(ValueError):
                        aggregate(name)

        keys, amount = data["region"], data["amount"]
        expected = sorted(
            (int(k), int(amount[keys == k].astype(object).sum()))
            for k in np.unique(keys))
        result = t.group_by_sum("region", "amount")
        assert list(result.items()) == expected
        assert all(type(total) is int for total in result.values())

        ts = data["ts"]
        bounds = [(0, 2 ** 64), (1, 2)]
        if n:
            bounds.append((int(ts[n // 4]), int(ts[3 * n // 4])))
        for zone_map in (False, True):
            if zone_map:
                t.build_zone_map("ts")
            for lo, hi in bounds:
                want = np.flatnonzero((ts >= np.uint64(lo))
                                      & (ts.astype(object) < hi))
                rows = t.filter_range("ts", lo, hi)
                np.testing.assert_array_equal(np.sort(rows), want)
                assert t.sum("amount", rows) == int(
                    amount[want].astype(object).sum())

        none = np.array([], dtype=np.int64)
        assert t.sum("amount", none) == 0
        for aggregate in (t.min, t.max, t.mean):
            with pytest.raises(ValueError):
                aggregate("amount", none)
