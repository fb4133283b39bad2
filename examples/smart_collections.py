"""Smart collections: the paper's §7 vision, runnable today.

Demonstrates every §7 extension implemented in this repo:

* hash-layout :class:`SmartMap` vs sorted-layout :class:`SortedSmartMap`
  — the two data layouts the paper sketches, with the modelled lookup
  trade-off;
* :class:`SmartSet` and :class:`SmartBag` interfaces over the same
  substrate;
* alternative compression: dictionary encoding and run-length encoding,
  with footprints compared against plain bit compression;
* the dynamic adaptivity controller reacting to a simulated load change.

Run:  python examples/smart_collections.py
"""

import numpy as np

from repro._util import human_bytes
from repro.adapt import (
    AdaptiveController,
    ArrayCharacteristics,
    MachineCapabilities,
    WorkloadMeasurement,
)
from repro.core import (
    SmartBag,
    SmartMap,
    SmartSet,
    SortedSmartMap,
    count_in_range,
    encode_array,
    layout_tradeoff,
    sum_range,
)
from repro.numa import PerfCounters, machine_2x18_haswell


def collections_demo() -> None:
    print("== maps: hash layout vs sorted layout ==")
    items = [(i * 37, i) for i in range(5_000)]
    hash_map = SmartMap.from_items(items)
    sorted_map = SortedSmartMap.from_items(items)
    assert hash_map[37 * 100] == sorted_map[37 * 100] == 100
    print(f"hash layout:   {human_bytes(hash_map.storage_bytes)} "
          f"(O(1) lookups, no order)")
    print(f"sorted layout: {human_bytes(sorted_map.storage_bytes)} "
          f"(log n lookups, range queries)")
    in_range = sum(1 for _ in sorted_map.range_query(1000, 2000))
    print(f"range query [1000, 2000): {in_range} keys")
    t = layout_tradeoff(len(items), machine_2x18_haswell())
    print(f"modelled lookup latency: hash {t['hash_lookup_ns']:.0f} ns vs "
          f"sorted {t['sorted_lookup_ns']:.0f} ns "
          f"({t['sorted_probes']} probes)")

    print("\n== sets and bags ==")
    follows = SmartSet.from_values([3, 14, 15, 92, 65, 35])
    print(f"set: {sorted(follows)}  (92 in set: {92 in follows})")
    clicks = SmartBag.from_values([7, 7, 7, 3, 3, 99])
    print(f"bag: top clicks = {clicks.most_common(2)}")


def compression_demo() -> None:
    print("\n== alternative compression (paper §7) ==")
    rng = np.random.default_rng(0)
    # A low-cardinality column of huge identifiers.
    dictionary = rng.integers(2**50, 2**60, size=500, dtype=np.uint64)
    column = dictionary[rng.integers(0, 500, size=100_000)]

    plain_bytes = column.size * 8
    enc = encode_array(column, "dict")
    print(f"plain 64-bit column:   {human_bytes(plain_bytes)}")
    print(f"dictionary encoded:    {human_bytes(enc.storage_bytes)} "
          f"({enc.bits}-bit codes, "
          f"{enc.generation.meta.cardinality} distincts)")
    lo, hi = int(dictionary.min()), int(np.median(dictionary))
    print(f"predicate on codes: {count_in_range(enc, lo, hi):,} rows in range")

    sorted_column = np.sort(rng.integers(0, 30, size=100_000)).astype(np.uint64)
    rle = encode_array(sorted_column, "rle")
    print(f"sorted column RLE:     {human_bytes(rle.storage_bytes)} "
          f"({rle.generation.meta.n_runs} runs for {len(rle):,} elements)")
    assert sum_range(rle) == int(sorted_column.sum())


def dynamic_adaptivity_demo() -> None:
    print("\n== dynamic re-adaptation (paper §7) ==")
    machine = machine_2x18_haswell()
    caps = MachineCapabilities(machine)
    array = ArrayCharacteristics(length=10**9, element_bits=33)

    def counters(time_s, inst, gb, memory_bound):
        return PerfCounters(
            time_s=time_s, instructions=inst, bytes_from_memory=gb * 1e9,
            memory_bandwidth_gbs=gb / time_s, memory_bound=memory_bound,
        )

    base = WorkloadMeasurement(
        counters=counters(0.1, 5e8, 8.0, True),
        linear_accesses_per_element=10.0,
        accesses_per_second=3e9,
    )
    ctl = AdaptiveController(caps, array, base, window=3)
    print(f"initial configuration: {ctl.configuration.describe()}")

    # Phase 1: steady memory-bound scanning.
    for _ in range(4):
        ctl.observe(counters(0.1, 5e8, 8.0, True))
    # Phase 2: a co-running job steals the CPUs; we turn compute-bound.
    decision = None
    for _ in range(6):
        decision = ctl.observe(
            counters(0.5, 2e11, 4.0, False)
        ) or decision
    if decision:
        print(f"load change detected at observation "
              f"{decision.observation_index}: {decision.reason}")
        print(f"reconfigured {decision.old.describe()} -> "
              f"{decision.new.describe()}")
    print(f"final configuration: {ctl.configuration.describe()}")


def main() -> None:
    collections_demo()
    compression_demo()
    dynamic_adaptivity_demo()


if __name__ == "__main__":
    main()
