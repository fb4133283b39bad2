"""End-to-end adaptive configuration selection (paper section 6).

Glues the two steps together: Figure 13's diagrams produce one
uncompressed and (when possible) one compressed placement candidate;
the section-6.2 projection picks between them.  The result names a
placement and a bit width — exactly the knobs ``SmartArray.allocate``
takes — plus the full decision provenance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.placement import Placement
from .compression_rule import CandidateEstimate, choose_compression
from .inputs import ArrayCharacteristics, MachineCapabilities, WorkloadMeasurement
from .placement_rules import (
    PlacementDecision,
    select_compressed_placement,
    select_uncompressed_placement,
)


@dataclass(frozen=True)
class Configuration:
    """A chosen smart-array configuration: placement + bit width + codec.

    ``codec`` widens the paper's candidate space to the encoded layouts
    of :mod:`repro.core.codecs`; for codec targets ``bits`` is advisory
    (each codec derives its own payload width at encode time).
    """

    placement: Placement
    bits: int
    codec: str = "bitpack"

    @property
    def compressed(self) -> bool:
        return self.bits not in (32, 64) or self.codec != "bitpack"

    def describe(self) -> str:
        comp = f"{self.bits}b" if self.bits not in (32, 64) \
            else f"uncompressed({self.bits}b)"
        if self.codec != "bitpack":
            comp = f"{self.codec}({self.bits}b payload)"
        return f"{self.placement.describe()} / {comp}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


@dataclass(frozen=True)
class SelectionResult:
    """The selected configuration with full decision provenance."""

    configuration: Configuration
    uncompressed_candidate: PlacementDecision
    compressed_candidate: PlacementDecision
    uncompressed_estimate: CandidateEstimate
    compressed_estimate: Optional[CandidateEstimate]

    @property
    def chose_compression(self) -> bool:
        return self.configuration.compressed or (
            self.compressed_candidate is not None
            and not self.compressed_candidate.is_no_compression
            and self.configuration.bits == 32
        )


def select_configuration(
    caps: MachineCapabilities,
    array: ArrayCharacteristics,
    measurement: WorkloadMeasurement,
    free_bytes_per_socket: Optional[int] = None,
) -> SelectionResult:
    """Run both steps and return the chosen configuration.

    ``free_bytes_per_socket`` overrides the capacity check — the paper's
    evaluation re-runs the diagrams "under the assumption that there is
    insufficient memory" for each replication flavour; pass a small
    value to reproduce those rows.
    """
    uncompressed = select_uncompressed_placement(
        caps, array, measurement, free_bytes_per_socket
    )
    compressed = select_compressed_placement(
        caps, array, measurement, free_bytes_per_socket
    )
    winner, unc_est, comp_est = choose_compression(
        caps, array, measurement, uncompressed, compressed
    )
    bits = array.element_bits if winner.compressed else array.uncompressed_bits
    assert winner.placement is not None  # no-compression never "wins"
    return SelectionResult(
        configuration=Configuration(placement=winner.placement, bits=bits),
        uncompressed_candidate=uncompressed,
        compressed_candidate=compressed,
        uncompressed_estimate=unc_est,
        compressed_estimate=comp_est,
    )
