"""Smart-collections benches: layout and compression-scheme trade-offs.

Times the §7 extensions' real operations — hash vs sorted lookups,
dictionary/RLE encode and scan — and, in script mode, prints the
footprint comparison across the codec layouts (:func:`encode_array`)
for representative column shapes.
"""

import numpy as np
import pytest

from repro._util import ascii_table, human_bytes
from repro.core import (
    SmartMap,
    SortedSmartMap,
    allocate_like,
    count_in_range,
    encode_array,
    sum_range,
)
from repro.numa import NumaAllocator, machine_2x8_haswell

try:
    from .common import emit
except ImportError:  # run as a script: python benchmarks/bench_*.py
    from common import emit

N_ITEMS = 5_000


def footprint_report() -> str:
    rng = np.random.default_rng(0)
    columns = {
        "uniform 33-bit": rng.integers(0, 2**33, size=50_000,
                                       dtype=np.uint64),
        "low-cardinality 60-bit": rng.integers(2**50, 2**60, size=500,
                                               dtype=np.uint64)[
            rng.integers(0, 500, size=50_000)
        ],
        "sorted status codes": np.sort(
            rng.integers(0, 16, size=50_000)
        ).astype(np.uint64),
    }
    rows = []
    for label, column in columns.items():
        plain = column.size * 8
        packed = allocate_like(column).storage_bytes
        rows.append([label, human_bytes(plain), human_bytes(packed)] + [
            human_bytes(encode_array(column, codec).storage_bytes)
            for codec in ("dict", "rle", "delta")
        ])
    return ascii_table(
        ["column", "plain 64b", "bit-packed", "dictionary", "RLE", "delta"],
        rows,
    )


@pytest.fixture(scope="module")
def maps():
    allocator = NumaAllocator(machine_2x8_haswell())
    items = [(i * 37, i) for i in range(N_ITEMS)]
    return (
        SmartMap.from_items(items, allocator=allocator),
        SortedSmartMap.from_items(items, allocator=allocator),
    )


def test_hash_map_lookups(benchmark, maps):
    hash_map, _ = maps
    keys = [(i % N_ITEMS) * 37 for i in range(500)]
    total = benchmark(lambda: sum(hash_map[k] for k in keys))
    assert total == sum(k // 37 for k in keys)


def test_sorted_map_lookups(benchmark, maps):
    _, sorted_map = maps
    keys = [(i % N_ITEMS) * 37 for i in range(500)]
    total = benchmark(lambda: sum(sorted_map[k] for k in keys))
    assert total == sum(k // 37 for k in keys)


def test_sorted_map_range_query(benchmark, maps):
    _, sorted_map = maps
    count = benchmark(lambda: sum(1 for _ in sorted_map.range_query(0, 37_000)))
    assert count == 1000


def test_dictionary_encode(benchmark):
    rng = np.random.default_rng(1)
    column = rng.integers(0, 1000, size=100_000, dtype=np.uint64)
    enc = benchmark(lambda: encode_array(column, "dict"))
    assert enc.generation.meta.cardinality <= 1000


def test_dictionary_predicate_scan(benchmark):
    rng = np.random.default_rng(2)
    column = rng.integers(0, 1000, size=100_000, dtype=np.uint64)
    enc = encode_array(column, "dict")
    count = benchmark(lambda: count_in_range(enc, 100, 200))
    assert count == int(((column >= 100) & (column < 200)).sum())


def test_rle_encode_and_sum(benchmark):
    column = np.sort(
        np.random.default_rng(3).integers(0, 50, size=200_000)
    ).astype(np.uint64)

    def encode_and_sum():
        return sum_range(encode_array(column, "rle"))

    assert benchmark(encode_and_sum) == int(column.sum())


def main() -> None:
    emit("Smart collections — compression-scheme footprints",
         footprint_report(), "collections.txt")


if __name__ == "__main__":
    main()
