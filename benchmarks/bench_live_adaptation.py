"""Live adaptation: scan throughput under online migration, and lag.

Two questions the live runtime (``repro.live``) must answer with
numbers rather than promises:

* **Interference** — how much does an in-flight migration slow the
  readers it promises not to block?  Steady ``sum_range`` scans are
  timed over a 1M-element array while a 64b -> replicated/33b repack
  runs in budgeted steps, against the same scans with no migration in
  flight.  Larger per-step budgets finish sooner but hold the write
  gate longer per step; the sweep makes that trade-off visible.  The
  default 64-chunk step is one superchunk, the largest repack
  ``bitpack.pack_array`` still scatters per element; larger steps pack
  through the byte-period kernel.

* **Adaptation lag** — how many daemon ticks pass between the first
  workload measurement and an accepted reconfiguration, end to end
  (measure -> decide -> budgeted copy steps -> verify -> accept)?

Run as a script it writes ``benchmarks/results/live_adaptation.txt``
and the machine-readable ``benchmarks/results/BENCH_live_adaptation.json``
(per budget: migration wall time and scan-during vs idle); under ``pytest --benchmark-only`` it times the same paths at reduced
scale: the idle scan, the scan with a migration parked mid-flight
(dual-generation state), and a full budgeted migration.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.adapt import Configuration, MachineCapabilities
from repro.core.allocate import allocate
from repro.core.map_api import sum_range
from repro.core.placement import Placement
from repro.live import LiveAdaptationDaemon, LiveMigrator, MigrationBudget
from repro.numa.allocator import NumaAllocator
from repro.numa.topology import machine_2x8_haswell

try:
    from .common import RESULTS_DIR, emit
except ImportError:  # pragma: no cover - script mode
    from common import RESULTS_DIR, emit

N_SCRIPT = 1_000_000
N_PYTEST = 100_000
BUDGETS = (64, 256, 1024, 4096)
JSON_NAME = "BENCH_live_adaptation.json"
TARGET = Configuration(Placement.replicated(), 33)


def _fresh(n, allocator):
    rng = np.random.default_rng(11)
    values = rng.integers(0, 1 << 33, size=n, dtype=np.uint64)
    array = allocate(n, bits=64, allocator=allocator, values=values)
    return array, int(values.astype(object).sum())


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def report(n=N_SCRIPT):
    """The text report and its numbers: ``(text, results)``."""
    machine = machine_2x8_haswell()
    allocator = NumaAllocator(machine)
    array, expected = _fresh(n, allocator)
    t_idle = _best_of(lambda: sum_range(array, 0, n))
    lines = [
        f"sum_range over {n:,} elements (64b os_default, idle): "
        f"{t_idle * 1e3:.1f} ms",
        "",
        f"scans interleaved with a 64b -> {TARGET.describe()} repack "
        "(one scan per step):",
        f"{'budget (chunks/step)':<22} {'steps':>6} {'scan during (ms)':>17} "
        f"{'vs idle':>8} {'migration wall (s)':>19}",
    ]
    results = {"n_elements": n, "target": TARGET.describe(),
               "idle_scan_ms": round(t_idle * 1e3, 2), "budgets": {}}
    for budget in BUDGETS:
        arr, want = _fresh(n, allocator)
        migrator = LiveMigrator(allocator)
        m = migrator.start(
            arr, TARGET, budget=MigrationBudget(max_chunks_per_step=budget)
        )
        scan_times = []
        t0 = time.perf_counter()
        alive = True
        while alive:
            alive = m.step()
            t1 = time.perf_counter()
            assert sum_range(arr, 0, n) == want
            scan_times.append(time.perf_counter() - t1)
        wall = time.perf_counter() - t0
        during = sum(scan_times) / len(scan_times)
        lines.append(
            f"{budget:<22} {m.steps:>6} {during * 1e3:>17.1f} "
            f"{during / t_idle:>7.2f}x {wall:>19.2f}"
        )
        results["budgets"][budget] = {
            "steps": m.steps, "scan_during_ms": round(during * 1e3, 2),
            "scan_during_vs_idle": round(during / t_idle, 3),
            "migration_wall_s": round(wall, 3)}
        t_after = _best_of(lambda: sum_range(arr, 0, n))
        if budget == BUDGETS[-1]:
            lines.append(
                f"{'(post-migration scan)':<22} {'':>6} "
                f"{t_after * 1e3:>17.1f} {t_after / t_idle:>7.2f}x"
            )
            results["post_migration_scan_ms"] = round(t_after * 1e3, 2)

    lines += [
        "",
        "the post-migration scan decodes 33-bit words through the "
        "byte-period kernel",
        "where the 64b scan is a plain copy, so compression still costs "
        "time *in this",
        "simulator*; the paper's compressed-scan win is memory bandwidth "
        "on real hardware,",
        "which is what the perf model (and the daemon's selector) scores.",
    ]

    # Adaptation lag: the daemon end to end, one scan per tick.
    arr, want = _fresh(n, allocator)
    daemon = LiveAdaptationDaemon(
        arr, MachineCapabilities(machine), LiveMigrator(allocator),
        budget=MigrationBudget(max_chunks_per_step=4096),
    )
    first = {"decide": None, "migrate_done": None, "accept": None}
    tick = 0
    while first["accept"] is None and tick < 64:
        tick += 1
        assert sum_range(arr, 0, n) == want
        for event in daemon.tick(elapsed_s=0.01):
            if event.kind in first and first[event.kind] is None:
                first[event.kind] = tick
    lines += [
        "",
        "adaptation lag (daemon ticks from first measurement, one scan "
        "per tick):",
        f"  decision on tick {first['decide']}, copy finished on tick "
        f"{first['migrate_done']}, accepted on tick {first['accept']}",
        f"  final configuration: {arr.placement.describe()} / "
        f"{arr.bits}b (generation {arr.generation_epoch})",
    ]
    return "\n".join(lines), results


# -- pytest-benchmark entry points ------------------------------------

@pytest.fixture(scope="module")
def setup():
    machine = machine_2x8_haswell()
    allocator = NumaAllocator(machine)
    return machine, allocator


def test_scan_idle(benchmark, setup):
    _, allocator = setup
    array, expected = _fresh(N_PYTEST, allocator)
    assert benchmark(lambda: sum_range(array, 0, N_PYTEST)) == expected


def test_scan_with_migration_in_flight(benchmark, setup):
    # Dual-generation state: the migration is parked mid-copy, so every
    # scan resolves the live generation while the target fills.
    _, allocator = setup
    array, expected = _fresh(N_PYTEST, allocator)
    migration = LiveMigrator(allocator).start(
        array, TARGET, budget=MigrationBudget(max_chunks_per_step=64)
    )
    migration.step()
    assert benchmark(lambda: sum_range(array, 0, N_PYTEST)) == expected
    migration.run()
    assert migration.state == "completed"


def test_budgeted_migration(benchmark, setup):
    _, allocator = setup
    migrator = LiveMigrator(allocator)

    def fresh():
        return (_fresh(N_PYTEST, allocator)[0],), {}

    def migrate(array):
        return migrator.migrate(
            array, TARGET, budget=MigrationBudget(max_chunks_per_step=256)
        )

    result = benchmark.pedantic(migrate, setup=fresh, rounds=3)
    assert result.state == "completed"


def main() -> None:
    text, results = report()
    emit("Live adaptation — scan interference and adaptation lag",
         text, "live_adaptation.txt")
    path = os.path.join(RESULTS_DIR, JSON_NAME)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
