"""Bulk-span scan engine throughput (not a paper figure).

Times the real functional path against the pre-engine baseline:

* **decode** — the all-width blocked kernel
  (``bitpack_fast.unpack_words_blocked``) vs the old per-element
  gather (``np.arange(n)`` + ``bitpack.gather``), across divisor and
  word-straddling widths;
* **width sweep** — Melem/s of ``bitpack_fast.unpack_chunk_range`` for
  every width 1..64, decoding the whole array in morsels of 4,096 /
  65,536 elements and in one call, so a single width that regresses is
  visible;
* **scan** — serial superchunk ``count_in_range`` vs the same scan
  forced to chunk granularity (``superchunk=64``, the pre-engine loop
  shape), and the socket-parallel operators vs serial.

Run as a script it writes ``benchmarks/results/scan_engine.txt`` and the
machine-readable ``benchmarks/results/BENCH_scan_engine.json``; under
``pytest --benchmark-only`` it times the same paths.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.core import allocate, bitpack, bitpack_fast, scan_ops
from repro.numa import NumaAllocator, machine_2x8_haswell
from repro.runtime import (
    WorkerPool,
    parallel_count_in_range,
    parallel_sum_blocked,
)

try:
    from .common import RESULTS_DIR, emit
except ImportError:  # pragma: no cover - script mode
    from common import RESULTS_DIR, emit

N = 1_000_000
DECODE_BITS = (7, 13, 32, 33, 63)
JSON_NAME = "BENCH_scan_engine.json"
#: Whole chunks, so every morsel size divides the sweep evenly.
SWEEP_N = 1 << 20
SWEEP_MORSELS = (4_096, 65_536, SWEEP_N)


def _data(bits, n=N):
    rng = np.random.default_rng(11 + bits)
    return rng.integers(0, 1 << min(bits, 63), size=n, dtype=np.uint64)


def _best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def decode_report() -> str:
    lines = [
        f"{'bits':>4} {'gather (ms)':>12} {'blocked (ms)':>13} "
        f"{'speedup':>8}"
    ]
    all_indices = np.arange(N, dtype=np.int64)
    for bits in DECODE_BITS:
        values = _data(bits)
        words = bitpack.pack_array(values, bits)
        t_gather = _best_of(lambda: bitpack.gather(words, all_indices, bits))
        t_blocked = _best_of(
            lambda: bitpack_fast.unpack_words_blocked(words, N, bits)
        )
        lines.append(
            f"{bits:>4} {t_gather * 1e3:>12.2f} {t_blocked * 1e3:>13.2f} "
            f"{t_gather / t_blocked:>7.2f}x"
        )
    return "\n".join(lines)


def width_sweep():
    """Melem/s per width and morsel size: ``(text, {bits: {morsel: x}})``."""
    n_chunks = SWEEP_N // bitpack.CHUNK_ELEMENTS
    out = np.empty(SWEEP_N, dtype=np.uint64)
    results = {}
    lines = ["bits " + " ".join(f"{m:>11,}" for m in SWEEP_MORSELS)]
    for bits in range(1, bitpack.WORD_BITS + 1):
        values = _data(bits, SWEEP_N)
        words = bitpack.pack_array(values, bits)
        results[bits] = {}
        for morsel in SWEEP_MORSELS:
            step = morsel // bitpack.CHUNK_ELEMENTS

            def decode():
                for chunk in range(0, n_chunks, step):
                    bitpack_fast.unpack_chunk_range(
                        words, chunk, step, bits, out=out)

            results[bits][morsel] = round(
                SWEEP_N / _best_of(decode, repeats=3) / 1e6, 1)
        np.testing.assert_array_equal(out, values)
        lines.append(f"{bits:>4} " + " ".join(
            f"{results[bits][m]:>11.1f}" for m in SWEEP_MORSELS))
    return "\n".join(lines), results


def scan_report() -> str:
    machine = machine_2x8_haswell()
    allocator = NumaAllocator(machine)
    pool = WorkerPool(machine, n_workers=8)
    bits = 13
    values = _data(bits)
    sa = allocate(N, bits=bits, values=values, replicated=True,
                  allocator=allocator)
    lo, hi = 1000, 6000

    t_chunk = _best_of(
        lambda: scan_ops.count_in_range(sa, lo, hi, superchunk=64)
    )
    t_super = _best_of(lambda: scan_ops.count_in_range(sa, lo, hi))
    t_par = _best_of(lambda: parallel_count_in_range(sa, lo, hi, pool=pool))

    expected = int(((values >= lo) & (values < hi)).sum())
    assert scan_ops.count_in_range(sa, lo, hi) == expected
    assert parallel_count_in_range(sa, lo, hi, pool=pool) == expected

    lines = [
        f"count_in_range over {N:,} elements at {bits} bits:",
        f"{'engine':<34} {'time (ms)':>10} {'vs chunk-loop':>14}",
        f"{'chunk-at-a-time (superchunk=64)':<34} {t_chunk * 1e3:>10.2f} "
        f"{'1.00x':>14}",
        f"{'superchunk (4096)':<34} {t_super * 1e3:>10.2f} "
        f"{t_chunk / t_super:>13.2f}x",
        f"{'parallel (8 workers, threads)':<34} {t_par * 1e3:>10.2f} "
        f"{t_chunk / t_par:>13.2f}x",
    ]
    return "\n".join(lines)


# -- pytest-benchmark entry points ------------------------------------

@pytest.mark.parametrize("bits", [7, 33])
def test_blocked_decode(benchmark, bits):
    values = _data(bits, 200_000)
    words = bitpack.pack_array(values, bits)
    out = benchmark(
        lambda: bitpack_fast.unpack_words_blocked(words, values.size, bits)
    )
    np.testing.assert_array_equal(out, values)


@pytest.mark.parametrize("bits", [7, 33])
def test_gather_decode_baseline(benchmark, bits):
    values = _data(bits, 200_000)
    words = bitpack.pack_array(values, bits)
    idx = np.arange(values.size, dtype=np.int64)
    out = benchmark(lambda: bitpack.gather(words, idx, bits))
    np.testing.assert_array_equal(out, values)


def test_superchunk_count_in_range(benchmark):
    allocator = NumaAllocator(machine_2x8_haswell())
    values = _data(13, 200_000)
    sa = allocate(values.size, bits=13, values=values, allocator=allocator)
    expected = int(((values >= 1000) & (values < 6000)).sum())
    assert benchmark(
        lambda: scan_ops.count_in_range(sa, 1000, 6000)
    ) == expected


def test_parallel_sum_blocked(benchmark):
    machine = machine_2x8_haswell()
    allocator = NumaAllocator(machine)
    pool = WorkerPool(machine, n_workers=8)
    values = _data(20, 200_000)
    sa = allocate(values.size, bits=20, values=values, replicated=True,
                  allocator=allocator)
    assert benchmark(
        lambda: parallel_sum_blocked(sa, pool=pool)
    ) == int(values.sum())


def main() -> None:
    sweep_text, sweep = width_sweep()
    body = (
        f"Blocked all-width decode vs per-element gather "
        f"({N:,} elements, best of 5):\n{decode_report()}\n\n"
        f"unpack_chunk_range Melem/s by morsel size ({SWEEP_N:,} elements, "
        f"best of 3):\n{sweep_text}\n\n"
        f"{scan_report()}"
    )
    emit("Bulk-span scan engine — decode and scan throughput", body,
         "scan_engine.txt")
    path = os.path.join(RESULTS_DIR, JSON_NAME)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"n_elements": SWEEP_N, "unit": "Melem/s",
                   "unpack_melems_s": sweep}, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
