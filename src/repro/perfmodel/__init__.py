"""Analytic performance model: regenerates the paper's figures.

A :class:`~repro.perfmodel.workload.WorkloadProfile` (resource demands)
is combined by :func:`~repro.perfmodel.engine.simulate` with a machine
and a placement into simulated performance counters; the
``aggregation`` and ``graph_models`` modules build the profiles for the
paper's workloads, and :mod:`repro.perfmodel.calibration` holds the
fitted constants.
"""

from .aggregation import (
    AggregationRow,
    ELEMENTS_PER_ARRAY,
    FIGURE10_BITS,
    FIGURE10_PLACEMENTS,
    TOTAL_ELEMENTS,
    aggregation_profile,
    figure2_rows,
    figure10_grid,
    format_rows,
)
from .engine import SimulatedRun, best_placement, compute_rate, simulate
from .graph_models import (
    DEGREE_GRAPH,
    GRAPH_PLACEMENTS,
    GraphRow,
    GraphStats,
    PAGERANK_ITERATIONS,
    PAGERANK_VARIANTS,
    TWITTER_GRAPH,
    degree_centrality_profile,
    figure1_rows,
    figure11_grid,
    figure12_grid,
    format_graph_rows,
    pagerank_memory_bytes,
    pagerank_profile,
    pagerank_variant_bits,
)
from .stream import (
    STREAM_KERNELS,
    StreamRow,
    format_stream_table,
    run_functional_kernel,
    stream_profile,
    stream_table,
)
from .workload import (
    WorkloadProfile,
    blocked_scan_instructions,
    compressed_scan_instructions,
    scan_engine_instructions,
)

__all__ = [
    "AggregationRow",
    "DEGREE_GRAPH",
    "ELEMENTS_PER_ARRAY",
    "FIGURE10_BITS",
    "FIGURE10_PLACEMENTS",
    "GRAPH_PLACEMENTS",
    "GraphRow",
    "GraphStats",
    "PAGERANK_ITERATIONS",
    "PAGERANK_VARIANTS",
    "STREAM_KERNELS",
    "SimulatedRun",
    "StreamRow",
    "format_stream_table",
    "run_functional_kernel",
    "stream_profile",
    "stream_table",
    "TOTAL_ELEMENTS",
    "TWITTER_GRAPH",
    "WorkloadProfile",
    "aggregation_profile",
    "best_placement",
    "blocked_scan_instructions",
    "compressed_scan_instructions",
    "scan_engine_instructions",
    "compute_rate",
    "degree_centrality_profile",
    "figure1_rows",
    "figure2_rows",
    "figure10_grid",
    "figure11_grid",
    "figure12_grid",
    "format_graph_rows",
    "format_rows",
    "pagerank_memory_bytes",
    "pagerank_profile",
    "pagerank_variant_bits",
    "simulate",
]
