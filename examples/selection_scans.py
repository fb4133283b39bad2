"""Selection scans: column-store predicate evaluation over smart arrays.

Shows the scan stack this repo layers on the paper's chunked
compression (all §7/§8-adjacent techniques):

* whole-column range scans (``count_in_range`` etc.), which run as
  one-column queries on the morsel executor;
* zone maps — per-chunk min/max skipping, with the skip rate made
  visible through the access-statistics counters;
* dictionary-encoded predicate push-down (compare codes, not values);
* the fused min/max pass.

Run:  python examples/selection_scans.py
"""

import numpy as np

from repro._util import human_bytes
from repro.core import (
    allocate,
    count_in_range,
    encode_array,
    min_max,
    select_in_range,
)
from repro.core.zonemap import ZoneMap

N = 500_000


def main() -> None:
    rng = np.random.default_rng(7)
    # An append-mostly fact column: values correlate with position
    # (timestamps do this), which is what makes zone maps effective.
    base = np.linspace(0, 1_000_000, N)
    noise = rng.normal(0, 5_000, N)
    values = np.clip(base + noise, 0, None).astype(np.uint64)
    sa = allocate(N, bits=20, values=values)
    print(f"column: {N:,} values, 20-bit packed "
          f"({human_bytes(sa.storage_bytes)} vs "
          f"{human_bytes(N * 8)} uncompressed)")

    lo_v, hi_v = min_max(sa)
    print(f"min/max pass: [{lo_v:,}, {hi_v:,}]")

    lo, hi = 400_000, 410_000
    expected = int(((values >= lo) & (values < hi)).sum())

    # 1. full scan: the column carries no zone map yet
    sa.stats.reset()
    count = count_in_range(sa, lo, hi)
    full_unpacks = sa.stats.chunk_unpacks
    assert count == expected
    print(f"\nrange [{lo:,}, {hi:,}): {count:,} rows")
    print(f"full scan unpacked {full_unpacks:,} chunks")

    # 2. the same scan once the column carries its zone map
    zm = sa.zone_map = ZoneMap.build(sa)
    sa.stats.reset()
    count_zm = count_in_range(sa, lo, hi)
    zm_unpacks = sa.stats.chunk_unpacks
    assert count_zm == expected
    print(f"zone-map scan unpacked {zm_unpacks:,} chunks "
          f"({zm_unpacks / full_unpacks:.1%} of the column; index costs "
          f"{human_bytes(zm.storage_bytes)})")

    idx = select_in_range(sa, lo, hi)
    print(f"matching row ids: first={idx[0] if idx.size else '-'}, "
          f"last={idx[-1] if idx.size else '-'}")
    np.testing.assert_array_equal(
        idx, np.flatnonzero((values >= lo) & (values < hi)))

    # 3. dictionary push-down on a low-cardinality companion column
    categories = rng.integers(0, 50, size=N, dtype=np.uint64) * 1_000_003
    enc = encode_array(categories, "dict")
    some = int(np.unique(categories)[10])
    matches = count_in_range(enc, some, some + 1)
    print(f"\ndictionary column: {enc.generation.meta.cardinality} "
          f"distincts, {enc.bits}-bit codes")
    print(f"equality predicate via code range: {matches:,} rows "
          f"(expected {(categories == some).sum():,})")


if __name__ == "__main__":
    main()
