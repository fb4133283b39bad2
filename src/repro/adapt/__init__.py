"""Adaptive configuration selection (paper section 6).

Step 1 (:mod:`placement_rules`) walks the Figure 13 decision diagrams to
pick an uncompressed and a compressed placement candidate; step 2
(:mod:`compression_rule`) projects the compressed candidate's resource
needs and picks the faster of the two; :mod:`evaluation` replays the
paper's section-6.3 accuracy study against the performance model.
"""

from .compression_rule import (
    CandidateEstimate,
    choose_compression,
    estimate_candidate,
    projected_compressed_rates,
)
from .dynamic import AdaptiveController, Reconfiguration
from .evaluation import (
    AdaptivityCase,
    CANDIDATE_PLACEMENTS,
    COMPRESSIBLE_BITS,
    EvaluationStats,
    MEMORY_ASSUMPTIONS,
    default_grid,
    evaluate_case,
    evaluate_grid,
    oracle_best,
    profiling_measurement,
)
from .inputs import (
    ArrayCharacteristics,
    MachineCapabilities,
    PEAK_IPC,
    WorkloadMeasurement,
)
from .placement_rules import (
    PlacementDecision,
    all_local_beats_all_remote,
    local_vs_remote_speedups,
    select_compressed_placement,
    select_uncompressed_placement,
)
from .selector import Configuration, SelectionResult, select_configuration

__all__ = [
    "AdaptiveController",
    "AdaptivityCase",
    "Reconfiguration",
    "ArrayCharacteristics",
    "CANDIDATE_PLACEMENTS",
    "COMPRESSIBLE_BITS",
    "CandidateEstimate",
    "Configuration",
    "EvaluationStats",
    "MEMORY_ASSUMPTIONS",
    "MachineCapabilities",
    "PEAK_IPC",
    "PlacementDecision",
    "SelectionResult",
    "WorkloadMeasurement",
    "all_local_beats_all_remote",
    "choose_compression",
    "default_grid",
    "estimate_candidate",
    "evaluate_case",
    "evaluate_grid",
    "local_vs_remote_speedups",
    "oracle_best",
    "profiling_measurement",
    "projected_compressed_rates",
    "select_compressed_placement",
    "select_configuration",
    "select_uncompressed_placement",
]
