"""Simulated NUMA substrate: topology, pages, allocation, rooflines.

Substitutes the paper's hardware (two Oracle X5-2 Haswell boxes) and the
OS placement facilities the C++ implementation drives via system calls.
"""

from .allocator import Allocation, NumaAllocator
from .bandwidth import (
    BandwidthModel,
    CACHE_LINE_BYTES,
    DEFAULT_MLP,
    OS_DEFAULT_BLEND,
    SINGLE_SOCKET_EFFICIENCY,
)
from .counters import PerfCounters
from .migration import (
    AutoNumaSimulator,
    PeriodStats,
    partitioned_accessor,
    shared_accessor,
    single_socket_accessor,
)
from .mlc import MlcReport, format_table1, measure, placement_survey
from .pages import MemoryLedger, PageMap, pages_for
from .topology import (
    GB,
    GIB,
    InterconnectSpec,
    MachineSpec,
    PAPER_MACHINES,
    SocketSpec,
    machine_2x18_haswell,
    machine_2x8_haswell,
    machine_by_name,
)

__all__ = [
    "Allocation",
    "AutoNumaSimulator",
    "BandwidthModel",
    "PeriodStats",
    "partitioned_accessor",
    "shared_accessor",
    "single_socket_accessor",
    "CACHE_LINE_BYTES",
    "DEFAULT_MLP",
    "GB",
    "GIB",
    "InterconnectSpec",
    "MachineSpec",
    "MemoryLedger",
    "MlcReport",
    "NumaAllocator",
    "OS_DEFAULT_BLEND",
    "PAPER_MACHINES",
    "PageMap",
    "PerfCounters",
    "SINGLE_SOCKET_EFFICIENCY",
    "SocketSpec",
    "format_table1",
    "machine_2x18_haswell",
    "machine_2x8_haswell",
    "machine_by_name",
    "measure",
    "pages_for",
    "placement_survey",
]
