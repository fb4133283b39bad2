"""Ablations: the design choices behind the paper's results.

Not a paper figure — this bench isolates the knobs DESIGN.md calls out:

* **access-path ablation** (real timings): scalar iterator vs the
  chunk-buffered compressed iterator vs the §7 bounded map() API vs the
  fully vectorized kernels — quantifying what chunk-amortization and
  branch removal buy;
* **interconnect ablation** (model): sweep the QPI link count and watch
  the interleaved-vs-single-socket verdict flip — the single hardware
  difference that explains the two machines' opposite behaviour;
* **OS-default blend ablation** (model): sensitivity of the OS-default
  placement to how far parallel first-touch scatters pages;
* **random-access MLP ablation** (model): how PageRank's replication
  win depends on per-thread memory-level parallelism.
"""

import numpy as np
import pytest

from repro.core import SmartArrayIterator, allocate, bitpack, sum_range
from repro.core.placement import Placement
from repro.numa import (
    BandwidthModel,
    InterconnectSpec,
    MachineSpec,
    NumaAllocator,
    machine_2x8_haswell,
)
from repro.perfmodel import pagerank_profile, simulate

try:
    from .common import emit
except ImportError:  # run as a script: python benchmarks/bench_*.py
    from common import emit

N = 50_000


def _with_links(machine: MachineSpec, links: int, per_link_gbs: float = 8.0):
    return MachineSpec(
        name=f"{machine.name} ({links} links)",
        sockets=machine.sockets,
        interconnect=InterconnectSpec(
            bandwidth_gbs=per_link_gbs * links,
            latency_ns=machine.interconnect.latency_ns,
            links=links,
        ),
        page_bytes=machine.page_bytes,
        remote_efficiency=machine.remote_efficiency,
        local_efficiency=machine.local_efficiency,
    )


def interconnect_ablation() -> str:
    base = machine_2x8_haswell()
    lines = ["QPI links    single socket    interleaved    verdict"]
    for links in (1, 2, 3, 4):
        m = _with_links(base, links)
        bm = BandwidthModel(m)
        single = bm.single_socket_gbs()
        inter = bm.interleaved_gbs()
        verdict = "interleave" if inter > single else "single socket"
        lines.append(
            f"{links:>9}    {single:>10.1f} GB/s  {inter:>10.1f} GB/s    {verdict}"
        )
    lines.append("")
    lines.append(
        "The verdict flips once aggregate link bandwidth approaches one "
        "socket's local bandwidth — the paper's 8-core (1 link) vs "
        "18-core (3 links) contrast."
    )
    return "\n".join(lines)


def blend_ablation() -> str:
    from repro.perfmodel import aggregation_profile

    machine = machine_2x8_haswell()
    profile = aggregation_profile(64)
    lines = ["os_default_blend    modelled OS-default time (multithreaded init)"]
    for blend in (0.0, 0.25, 0.5, 0.65, 0.85, 1.0):
        bm = BandwidthModel(machine, os_default_blend=blend)
        t = profile.stream_bytes / (
            bm.os_default_gbs(multithreaded_init=True) * 1e9
        )
        lines.append(f"{blend:>16.2f}    {t * 1e3:8.1f} ms")
    return "\n".join(lines)


def mlp_ablation() -> str:
    machine = machine_2x8_haswell()
    profile = pagerank_profile()
    lines = ["per-thread MLP    original (s)    replicated (s)    speedup"]
    for mlp in (1.0, 2.5, 5.0, 10.0):
        bm = BandwidthModel(machine, mlp=mlp)
        orig = simulate(profile, machine, Placement.os_default(), bm).time_s
        repl = simulate(profile, machine, Placement.replicated(), bm).time_s
        lines.append(
            f"{mlp:>14.1f}    {orig:>11.1f}    {repl:>13.1f}    {orig / repl:6.2f}x"
        )
    return "\n".join(lines)


# -- real access-path timings -------------------------------------------------


@pytest.fixture(scope="module")
def array():
    allocator = NumaAllocator(machine_2x8_haswell())
    values = np.random.default_rng(0).integers(0, 2**33, size=N,
                                               dtype=np.uint64)
    sa = allocate(N, bits=33, values=values, allocator=allocator)
    return sa, int(values.astype(object).sum())


def test_ablation_scalar_gets(benchmark, array):
    """Per-element Function 1 calls — no chunk amortization at all."""
    sa, expected = array

    def scan():
        replica = sa.get_replica(0)
        return sum(sa.get(i, replica) for i in range(0, N, 50))

    benchmark(scan)


def test_ablation_buffered_iterator(benchmark, array):
    """The paper's compressed iterator: unpack every 64 elements."""
    sa, expected = array

    def scan():
        it = SmartArrayIterator.allocate(sa, 0)
        total = 0
        for _ in range(N):
            total += it.get()
            it.next()
        return total

    assert benchmark(scan) == expected


def test_ablation_bounded_map(benchmark, array):
    """The §7 map() API: chunk-at-a-time, no per-element branches."""
    sa, expected = array
    assert benchmark(lambda: sum_range(sa)) == expected


def test_ablation_vectorized(benchmark, array):
    """Full NumPy decode: the upper bound for the functional path."""
    sa, expected = array

    def scan():
        values = bitpack.unpack_array(sa.get_replica(0), N, 33)
        return bitpack.exact_sum(values)

    assert benchmark(scan) == expected


def main() -> None:
    body = "\n\n".join([
        "## Interconnect links vs placement verdict (8-core base)",
        interconnect_ablation(),
        "## OS-default first-touch blend sensitivity",
        blend_ablation(),
        "## PageRank random-access MLP sensitivity (8-core)",
        mlp_ablation(),
    ])
    emit("Ablations — design-choice sensitivity", body, "ablations.txt")


if __name__ == "__main__":
    main()
