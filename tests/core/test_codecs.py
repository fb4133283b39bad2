"""Tests for codec-polymorphic storage: dictionary/RLE/delta layouts as
first-class :class:`StorageGeneration` citizens.

Covers the three load-bearing claims of the codec integration:

* an encoded array answers every read operator (point gets, bulk
  decodes, sargable scans, queries) bit-identically to its bit-packed
  twin, while writes raise :class:`CodecWriteError`;
* the §6 migrator moves arrays *between* codecs online — including the
  acceptance scenario of a low-cardinality column re-encoded
  bitpack → dict while a reader thread continuously validates it with
  zero divergences;
* sargable predicates on encoded columns evaluate in the encoded
  domain yet produce answers bit-identical to the interpreted
  bit-packed path through ``table.query()``.
"""

import threading

import numpy as np
import pytest

from repro.adapt.selector import Configuration
from repro.core.allocate import allocate
from repro.core.errors import CodecWriteError
from repro.core.map_api import sum_range
from repro.core.placement import Placement
from repro.core.scan_ops import (
    count_equal,
    count_in_range,
    min_max,
    select_in_range,
)
from repro.core.table import SmartTable
from repro.live import LiveMigrator, MigrationBudget
from repro.numa.allocator import NumaAllocator
from repro.numa.topology import machine_2x8_haswell
from repro.obs.registry import MetricsRegistry
from repro.query import Query, in_range
from repro.runtime.loops import default_pool

CODECS = ("dict", "rle", "delta")


@pytest.fixture
def allocator():
    return NumaAllocator(machine_2x8_haswell())


@pytest.fixture
def migrator(allocator):
    return LiveMigrator(allocator, registry=MetricsRegistry())


def low_cardinality(n, seed=0):
    rng = np.random.default_rng(seed)
    dictionary = rng.integers(2**40, 2**50, size=16, dtype=np.uint64)
    return dictionary[rng.integers(0, 16, size=n)]


def runs(n, seed=0):
    rng = np.random.default_rng(seed)
    out = np.repeat(
        rng.integers(0, 1000, size=max(1, n // 20), dtype=np.uint64), 20
    )
    return out[:n]


def sorted_values(n, seed=0):
    rng = np.random.default_rng(seed)
    return np.sort(rng.integers(0, 1 << 40, size=n, dtype=np.uint64))


DATASETS = {
    "dict": low_cardinality,
    "rle": runs,
    "delta": sorted_values,
}


class TestEncodedArrays:
    @pytest.mark.parametrize("codec", CODECS)
    def test_roundtrip_and_point_access(self, allocator, codec):
        values = DATASETS[codec](700, seed=3)
        arr = allocate(len(values), codec=codec, values=values,
                       allocator=allocator)
        assert arr.codec == codec
        np.testing.assert_array_equal(arr.to_numpy(), values)
        for i in (0, 1, 63, 64, 311, len(values) - 1):
            assert arr.get(i) == values[i]

    @pytest.mark.parametrize("codec", CODECS)
    def test_scan_operators_match_numpy(self, allocator, codec):
        values = DATASETS[codec](900, seed=5)
        arr = allocate(len(values), codec=codec, values=values,
                       allocator=allocator)
        lo = int(np.percentile(values, 25))
        hi = int(np.percentile(values, 75))
        mask = (values >= lo) & (values < hi)
        assert count_in_range(arr, lo, hi) == int(mask.sum())
        np.testing.assert_array_equal(
            select_in_range(arr, lo, hi), np.flatnonzero(mask)
        )
        target = int(values[17])
        assert count_equal(arr, target) == int((values == target).sum())
        assert min_max(arr) == (int(values.min()), int(values.max()))
        assert sum_range(arr, 0, len(values)) == int(
            values.astype(object).sum()
        )

    @pytest.mark.parametrize("codec", CODECS)
    def test_decode_chunks_and_gather(self, allocator, codec):
        values = DATASETS[codec](500, seed=7)
        arr = allocate(len(values), codec=codec, values=values,
                       allocator=allocator)
        flat = arr.decode_chunks(1, 3)
        np.testing.assert_array_equal(flat, values[64:256])
        idx = np.array([0, 499, 250, 64, 63], dtype=np.int64)
        np.testing.assert_array_equal(arr.gather_many(idx), values[idx])

    @pytest.mark.parametrize("codec", CODECS)
    def test_writes_raise_codec_write_error(self, allocator, codec):
        values = DATASETS[codec](200, seed=9)
        arr = allocate(len(values), codec=codec, values=values,
                       allocator=allocator)
        with pytest.raises(CodecWriteError):
            arr.fill(values)
        with pytest.raises(CodecWriteError):
            arr.scatter_many(np.array([0, 1]), np.array([5, 6]))
        with pytest.raises(CodecWriteError):
            arr[0] = 1
        # ... and the data is untouched afterwards.
        np.testing.assert_array_equal(arr.to_numpy(), values)

    def test_value_bits_reports_decoded_width(self, allocator):
        values = low_cardinality(300)
        arr = allocate(len(values), codec="dict", values=values,
                       allocator=allocator)
        # Payload codes are ~4 bits wide, but the decoded domain needs
        # the dictionary's width.
        assert arr.value_bits >= 40
        assert arr.bits < arr.value_bits


class TestCodecMigrations:
    @pytest.mark.parametrize("codec", CODECS)
    def test_bitpack_to_codec_and_back(self, allocator, migrator, codec):
        values = DATASETS[codec](800, seed=11)
        arr = allocate(len(values), bits=None, values=values,
                       allocator=allocator)
        m = migrator.migrate(
            arr, Configuration(Placement.interleaved(), 64, codec)
        )
        assert m.state == "completed"
        assert arr.codec == codec
        np.testing.assert_array_equal(arr.to_numpy(), values)
        # Encoded layouts are immutable ...
        with pytest.raises(CodecWriteError):
            arr[0] = 1
        # ... until migrated back to bitpack, which restores writes.
        m2 = migrator.migrate(
            arr, Configuration(Placement.interleaved(), 64)
        )
        assert m2.state == "completed"
        assert arr.codec == "bitpack"
        arr[0] = 12345
        assert arr.get(0) == 12345

    @pytest.mark.parametrize("source,target", [
        ("dict", "bitpack"), ("bitpack", "dict"), ("dict", "rle"),
    ])
    def test_bound_decode_survives_the_class_swap(self, allocator, migrator,
                                                  source, target):
        # A compiled kernel holds ``array.decode_chunks`` (bound) and a
        # pinned generation's buffer for a whole morsel.  A migration
        # committing mid-morsel swaps the array's concrete class; the
        # held method must keep decoding the pinned generation instead
        # of reaching for a method only the old class had.
        values = low_cardinality(640, seed=19)
        arr = allocate(len(values), codec=source, values=values,
                       allocator=allocator)
        decode = arr.decode_chunks
        gen = arr.pin_generation()
        try:
            m = migrator.migrate(
                arr, Configuration(Placement.interleaved(), 64, target))
            assert m.state == "completed"
            np.testing.assert_array_equal(
                decode(0, 10, replica=gen.buffer_for_socket(0)), values)
        finally:
            gen.unpin()
        np.testing.assert_array_equal(arr.decode_chunks(0, 10), values)

    def test_codec_to_codec(self, allocator, migrator):
        values = runs(600, seed=13)
        arr = allocate(len(values), codec="dict", values=values,
                       allocator=allocator)
        m = migrator.migrate(
            arr, Configuration(Placement.interleaved(), 64, "rle")
        )
        assert m.state == "completed"
        assert arr.codec == "rle"
        np.testing.assert_array_equal(arr.to_numpy(), values)

    def test_writes_mirrored_into_staging_mid_encode(self, allocator,
                                                     migrator):
        values = low_cardinality(640, seed=17)
        arr = allocate(len(values), bits=None, values=values,
                       allocator=allocator)
        migration = migrator.start(
            arr, Configuration(Placement.interleaved(), 64, "dict"),
            budget=MigrationBudget(max_chunks_per_step=2),
        )
        migration.step()
        # The array is still bitpack (and writable) mid-flight; the
        # write must land in the already-copied staging prefix.
        arr[0] = 999
        expected = values.copy()
        expected[0] = 999
        while migration.state == "running":
            migration.step()
        assert migration.state == "completed"
        assert arr.codec == "dict"
        np.testing.assert_array_equal(arr.to_numpy(), expected)

    def test_acceptance_online_reencode_under_concurrent_reader(
            self, allocator, migrator):
        # ISSUE 9 acceptance: a low-cardinality column is migrated
        # bitpack -> dict online by the LiveMigrator while a reader
        # thread continuously validates it, with zero divergences.
        values = low_cardinality(4096, seed=19)
        arr = allocate(len(values), bits=None, values=values,
                       allocator=allocator)
        expected_sum = int(values.astype(object).sum())
        lo = int(values.min())
        hi = int(values.max())  # half-open: excludes the max values
        expected_count = int(((values >= lo) & (values < hi)).sum())

        divergences = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                if sum_range(arr, 0, len(values)) != expected_sum:
                    divergences.append("sum")
                if count_in_range(arr, lo, hi) != expected_count:
                    divergences.append("count")
                for i in (0, 1234, 4095):
                    if arr.get(i) != values[i]:
                        divergences.append(f"get[{i}]")

        t = threading.Thread(target=reader)
        t.start()
        try:
            migration = migrator.start(
                arr, Configuration(Placement.interleaved(), 64, "dict"),
                budget=MigrationBudget(max_chunks_per_step=1),
            )
            while migration.state == "running":
                migration.step()
        finally:
            stop.set()
            t.join()
        assert migration.state == "completed"
        assert arr.codec == "dict"
        assert divergences == []
        # And the reader's operators still agree after the swap.
        assert sum_range(arr, 0, len(values)) == expected_sum
        assert count_in_range(arr, lo, hi) == expected_count


class TestEncodedQueries:
    @pytest.mark.parametrize("codec", CODECS)
    def test_query_count_bit_identical_to_bitpack(self, allocator, codec):
        # ISSUE 9 acceptance: an encoded-domain count_in_range through
        # table.query() is bit-identical to the interpreted bit-packed
        # path over the same data.
        n = 20_000
        k = DATASETS[codec](n, seed=23)
        v = np.random.default_rng(29).integers(
            0, 1 << 16, size=n, dtype=np.uint64
        )
        encoded = SmartTable.from_arrays(
            {"k": k, "v": v}, allocator=allocator, codecs={"k": codec}
        )
        plain = SmartTable.from_arrays({"k": k, "v": v},
                                       allocator=allocator)
        assert encoded["k"].codec == codec
        lo = int(np.percentile(k, 30))
        hi = int(np.percentile(k, 70))
        for pool in (None, default_pool(4)):
            got = (
                Query(encoded).where(in_range("k", lo, hi)).count()
                .run(pool=pool)
            )
            want = (
                Query(plain).where(in_range("k", lo, hi)).count()
                .run(pool=pool)
            )
            assert got["count(*)"] == want["count(*)"]
        mask = (k >= lo) & (k < hi)
        assert got["count(*)"] == int(mask.sum())

    def test_query_aggregates_over_encoded_filter(self, allocator):
        n = 8192
        k = low_cardinality(n, seed=31)
        v = np.random.default_rng(37).integers(
            0, 1 << 20, size=n, dtype=np.uint64
        )
        table = SmartTable.from_arrays(
            {"k": k, "v": v}, allocator=allocator, codecs={"k": "dict"}
        )
        lo, hi = int(np.min(k)), int(np.percentile(k, 60))
        mask = (k >= lo) & (k < hi)
        result = (
            Query(table).where(in_range("k", lo, hi)).sum("v").count().run()
        )
        assert result["count(*)"] == int(mask.sum())
        assert result["sum(v)"] == int(v[mask].astype(object).sum())

    def test_zone_map_on_encoded_column(self, allocator):
        k = sorted_values(16384, seed=41)
        table = SmartTable.from_arrays(
            {"k": k}, allocator=allocator, codecs={"k": "delta"}
        )
        table.build_zone_map("k")
        lo, hi = int(k[2000]), int(k[3000])
        mask = (k >= lo) & (k < hi)
        result = Query(table).where(in_range("k", lo, hi)).count().run()
        assert result["count(*)"] == int(mask.sum())
