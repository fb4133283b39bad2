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
* **pack sweep** — Melem/s of ``bitpack_fast.pack_words_blocked`` for
  every width 1..64, packing the whole array in 4,096-element calls and
  in one call, asserted bit-identical to the per-element scatter
  (paper Function 2 in bulk) and set beside the slot-wise kernel it
  replaced (``SLOT_KERNEL_MELEMS_S``, recorded before the swap);
* **scan** — serial ``count_in_range`` (a one-column query on the
  morsel executor) vs the same query pooled on 8 threads.

Run as a script it writes ``benchmarks/results/scan_engine.txt`` and the
machine-readable ``benchmarks/results/BENCH_scan_engine.json``; under
``pytest --benchmark-only`` it times the same paths.
"""

import json
import os
import platform
import time

import numpy as np
import pytest

from repro.core import allocate, bitpack, bitpack_fast, scan_ops
from repro.core.table import SmartTable
from repro.numa import NumaAllocator, machine_2x8_haswell
from repro.query import Query, in_range
from repro.runtime import WorkerPool, parallel_sum_bulk

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
#: Elements per ``pack_words_blocked`` call in the pack sweep.
PACK_SIZES = (4_096, SWEEP_N)
#: Pack Melem/s of the slot-wise kernel this one replaced (64 strided
#: slot passes per chunk for widths that do not divide 64, one pass per
#: slot of a word otherwise), by width: ``(4,096-element calls, one
#: call)`` over ``SWEEP_N`` elements, best of 3, measured with this
#: script's ``pack_rates`` on a 2-vCPU x86-64 Linux VM (NumPy 2.4).
SLOT_KERNEL_MELEMS_S = {
    1: (27.8, 93.2), 2: (48.7, 101.4), 3: (24.8, 81.3), 4: (80.9, 122.3),
    5: (24.9, 81.5), 6: (25.1, 78.4), 7: (24.6, 77.2), 8: (125.6, 171.2),
    9: (24.0, 69.9), 10: (24.0, 72.5), 11: (23.1, 67.1), 12: (23.8, 70.1),
    13: (23.2, 68.5), 14: (21.9, 67.9), 15: (22.1, 62.9),
    16: (170.0, 220.1), 17: (21.5, 59.1), 18: (21.6, 62.9),
    19: (20.8, 58.6), 20: (21.7, 67.7), 21: (22.0, 59.0), 22: (21.9, 59.8),
    23: (21.6, 54.6), 24: (22.4, 63.2), 25: (19.2, 57.4), 26: (20.6, 53.9),
    27: (20.2, 51.6), 28: (21.1, 54.9), 29: (19.7, 54.6), 30: (18.1, 53.6),
    31: (18.8, 48.8), 32: (206.7, 245.9), 33: (17.7, 47.3),
    34: (17.9, 51.6), 35: (18.2, 48.3), 36: (19.6, 53.9), 37: (18.1, 49.9),
    38: (17.5, 49.6), 39: (16.7, 52.8), 40: (17.2, 55.0), 41: (16.8, 50.4),
    42: (16.8, 43.4), 43: (15.6, 45.4), 44: (15.7, 42.9), 45: (14.2, 42.5),
    46: (16.5, 48.8), 47: (15.6, 40.5), 48: (14.7, 39.8), 49: (15.0, 39.0),
    50: (12.7, 30.3), 51: (15.3, 39.7), 52: (12.8, 33.3), 53: (12.8, 36.5),
    54: (9.0, 33.2), 55: (12.2, 32.7), 56: (8.4, 36.3), 57: (8.8, 29.9),
    58: (7.7, 31.0), 59: (7.8, 30.3), 60: (11.1, 33.8), 61: (12.2, 31.0),
    62: (8.1, 29.8), 63: (6.8, 27.4), 64: (337.5, 578.7),
}


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


def pack_rates(kernel, values, bits):
    """``{size: Melem/s}`` of ``kernel`` packing ``values`` in
    ``size``-element calls, and the words of the last (whole) pass."""
    rates, words = {}, None
    for size in PACK_SIZES:
        def pack():
            return [kernel(values[at:at + size], bits)
                    for at in range(0, values.size, size)]

        rates[size] = round(values.size / _best_of(pack, repeats=3) / 1e6, 1)
        words = np.concatenate(pack())
    return rates, words


def pack_sweep():
    """Pack Melem/s per width: ``(text, {bits: {size: x}})``."""
    results = {}
    lines = [f"bits {'4,096':>9} {'whole':>9} {'slot 4,096':>11} "
             f"{'slot whole':>11} {'gain':>6}"]
    for bits in range(1, bitpack.WORD_BITS + 1):
        values = _data(bits, SWEEP_N)
        results[bits], words = pack_rates(bitpack_fast.pack_words_blocked,
                                          values, bits)
        # Bit-identical to the per-element scatter pack_array keeps for
        # one superchunk, which the tests hold to paper Function 2.
        scatter = np.concatenate([
            bitpack.pack_array(values[at:at + 4096], bits)
            for at in range(0, SWEEP_N, 4096)])
        np.testing.assert_array_equal(words, scatter)
        slot = SLOT_KERNEL_MELEMS_S[bits]
        lines.append(
            f"{bits:>4} {results[bits][4096]:>9.1f} "
            f"{results[bits][SWEEP_N]:>9.1f} {slot[0]:>11.1f} "
            f"{slot[1]:>11.1f} {results[bits][SWEEP_N] / slot[1]:>5.1f}x")
    return "\n".join(lines), results


def host() -> str:
    """The machine the numbers were measured on."""
    return (f"{platform.machine()} {platform.system()}, "
            f"{os.cpu_count()} CPUs, Python {platform.python_version()}, "
            f"NumPy {np.__version__}")


def scan_report() -> str:
    machine = machine_2x8_haswell()
    allocator = NumaAllocator(machine)
    pool = WorkerPool(machine, n_workers=8)
    bits = 13
    values = _data(bits)
    sa = allocate(N, bits=bits, values=values, replicated=True,
                  allocator=allocator)
    lo, hi = 1000, 6000

    t_serial = _best_of(lambda: scan_ops.count_in_range(sa, lo, hi))
    table = SmartTable({"v": sa})

    def pooled() -> int:
        return (Query(table).where(in_range("v", lo, hi)).count()
                .run(pool=pool).scalar())

    t_par = _best_of(pooled)

    expected = int(((values >= lo) & (values < hi)).sum())
    assert scan_ops.count_in_range(sa, lo, hi) == expected
    assert pooled() == expected

    lines = [
        f"count_in_range over {N:,} elements at {bits} bits:",
        f"{'engine':<34} {'time (ms)':>10} {'vs serial':>14}",
        f"{'one-column query (serial)':<34} {t_serial * 1e3:>10.2f} "
        f"{'1.00x':>14}",
        f"{'one-column query (8 threads)':<34} {t_par * 1e3:>10.2f} "
        f"{t_serial / t_par:>13.2f}x",
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


def test_parallel_sum_bulk(benchmark):
    machine = machine_2x8_haswell()
    allocator = NumaAllocator(machine)
    pool = WorkerPool(machine, n_workers=8)
    values = _data(20, 200_000)
    sa = allocate(values.size, bits=20, values=values, replicated=True,
                  allocator=allocator)
    assert benchmark(
        lambda: parallel_sum_bulk(sa, pool=pool, batch=4096)
    ) == int(values.sum())


def main() -> None:
    sweep_text, sweep = width_sweep()
    pack_text, pack = pack_sweep()
    body = (
        f"host: {host()}\n\n"
        f"Blocked all-width decode vs per-element gather "
        f"({N:,} elements, best of 5):\n{decode_report()}\n\n"
        f"unpack_chunk_range Melem/s by morsel size ({SWEEP_N:,} elements, "
        f"best of 3):\n{sweep_text}\n\n"
        f"pack_words_blocked Melem/s by call size ({SWEEP_N:,} elements, "
        f"best of 3), against the slot-wise kernel it replaced:\n"
        f"{pack_text}\n\n"
        f"{scan_report()}"
    )
    emit("Bulk-span scan engine — decode and scan throughput", body,
         "scan_engine.txt")
    path = os.path.join(RESULTS_DIR, JSON_NAME)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"n_elements": SWEEP_N, "unit": "Melem/s", "host": host(),
                   "unpack_melems_s": sweep, "pack_melems_s": pack,
                   "slot_pack_melems_s": {
                       bits: dict(zip(PACK_SIZES, rates))
                       for bits, rates in SLOT_KERNEL_MELEMS_S.items()}},
                  fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
