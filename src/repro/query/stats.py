"""Per-query execution statistics and the query result container.

:class:`QueryStats` is the executor's observability surface: it records
what the morsel pipeline *actually did* — morsels claimed vs. pruned,
chunks decoded per column, rows scanned vs. matched — in the same units
as the arrays' own accounting (``stats.chunk_unpacks``,
``replica_read_elements``), so a test can diff the two and prove the
plan's pruning claims.  It also feeds the section-6 adaptivity loop:
:meth:`QueryStats.measurement` converts a finished query into the
:class:`~repro.adapt.inputs.WorkloadMeasurement` the selector consumes,
with instruction counts priced by :mod:`repro.perfmodel.workload` —
query executions become profiling runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..adapt import MachineCapabilities, WorkloadMeasurement
from ..numa.counters import PerfCounters
from ..perfmodel.workload import blocked_scan_instructions


@dataclass
class QueryStats:
    """What one query execution did, in checkable units."""

    morsels_total: int = 0
    morsels_pruned: int = 0
    morsels_executed: int = 0
    #: Morsels never visited because a ``limit()`` row budget was
    #: already satisfied by the completed morsel prefix (their chunks
    #: are counted in ``chunks_candidate`` but never decoded).
    morsels_skipped: int = 0
    #: Executed morsels that ran the plan's predicate-free kernel
    #: because the zone maps proved every candidate chunk matches.
    morsels_covered: int = 0
    #: Executed morsels that ran their kernel's native twin
    #: (:mod:`repro.core.native`) instead of its NumPy kernel.
    morsels_native: int = 0
    chunks_total: int = 0
    chunks_candidate: int = 0
    #: Chunks actually decoded, per needed column: the candidate chunks
    #: of executed morsels, minus those of covered morsels for a column
    #: only the predicate reads (``PhysicalPlan.predicted_decoded_chunks``).
    decoded_chunks: Dict[str, int] = field(default_factory=dict)
    #: Chunks answered from chunk synopses instead of decoded, per
    #: needed column (``PhysicalPlan.synopsis_chunks`` for each).
    synopsis_chunks: Dict[str, int] = field(default_factory=dict)
    #: Elements handed to the blocked kernel per column (64 per decoded
    #: chunk, trailing-padding slots included — the exact unit
    #: ``replica_read_elements`` counts).
    decoded_elements: Dict[str, int] = field(default_factory=dict)
    rows_scanned: int = 0
    rows_matched: int = 0
    wall_time_s: float = 0.0
    est_instructions: float = 0.0
    n_workers: int = 1
    distribution: str = "dynamic"
    #: How predicate and output were evaluated: always ``"compiled"``
    #: (the plan's generated kernel, see :mod:`repro.query.codegen`).
    mode: str = "compiled"

    @property
    def chunks_pruned(self) -> int:
        return self.chunks_total - self.chunks_candidate

    @property
    def selectivity(self) -> float:
        """Matched over scanned rows (0 when nothing was scanned)."""
        return self.rows_matched / self.rows_scanned if self.rows_scanned else 0.0

    def measured_instructions(self) -> float:
        """Scan cost of what was decoded, per the blocked-engine model."""
        total = 0.0
        for name, elements in self.decoded_elements.items():
            total += blocked_scan_instructions(elements, self._bits.get(name, 64))
        return total

    #: Per-column bit widths, recorded by the executor so instruction
    #: pricing stays self-contained after the table goes away.
    _bits: Dict[str, int] = field(default_factory=dict)

    def counters(self, label: str = "query") -> PerfCounters:
        """The execution as profiling counters (simulated hardware)."""
        bytes_read = sum(
            elements * self._bits.get(name, 64) / 8
            for name, elements in self.decoded_elements.items()
        )
        time_s = max(self.wall_time_s, 1e-9)
        return PerfCounters(
            time_s=time_s,
            instructions=self.measured_instructions(),
            bytes_from_memory=bytes_read,
            memory_bandwidth_gbs=bytes_read / time_s / 1e9,
            memory_bound=True,
            label=label,
        )

    def measurement(
        self,
        accesses_per_element: float = 1.0,
        label: str = "query",
    ) -> WorkloadMeasurement:
        """This execution as selector input — queries double as the
        paper's profiling runs."""
        time_s = max(self.wall_time_s, 1e-9)
        total_elements = sum(self.decoded_elements.values())
        return WorkloadMeasurement(
            counters=self.counters(label),
            read_only=True,
            linear_accesses_per_element=accesses_per_element,
            accesses_per_second=total_elements / time_s,
        )

    def describe(self) -> str:
        skipped = (
            f"{self.morsels_skipped} skipped (limit), "
            if self.morsels_skipped else ""
        )
        covered = (f" ({self.morsels_covered} covered)"
                   if self.morsels_covered else "")
        lines = [
            f"morsels: {self.morsels_executed} executed{covered}, "
            f"{self.morsels_pruned} pruned, {skipped}"
            f"{self.morsels_total} total "
            f"({self.n_workers} workers, {self.distribution}, {self.mode})",
            f"chunks: {self.chunks_candidate} candidate / "
            f"{self.chunks_pruned} pruned / {self.chunks_total} total",
            f"rows: {self.rows_matched:,} matched of {self.rows_scanned:,} "
            f"scanned (selectivity {self.selectivity:.4f})",
        ]
        for name in sorted(self.decoded_chunks):
            synopsis = self.synopsis_chunks.get(name, 0)
            lines.append(
                f"decoded {name}: {self.decoded_chunks[name]} chunks = "
                f"{self.decoded_elements[name]:,} elements"
                + (f" ({synopsis} chunks from synopses)" if synopsis else "")
            )
        lines.append(
            f"time: {self.wall_time_s * 1e3:.2f} ms, "
            f"~{self.measured_instructions():,.0f} scan instructions "
            f"(planned {self.est_instructions:,.0f})"
        )
        return "\n".join(lines)


class QueryResult:
    """The output of one executed query.

    ``kind`` is one of:

    * ``"aggregate"`` — :attr:`aggregates` maps output name to value
      (``sum``/``count`` are exact ints; ``min``/``max``/``mean`` are
      ``None`` on an empty selection, matching SQL NULL);
    * ``"groups"`` — :attr:`groups` maps each key to its aggregate dict;
    * ``"rows"`` — :attr:`rows` holds matching row indices (ascending)
      and :attr:`columns` the projected values for those rows.
    """

    def __init__(
        self,
        kind: str,
        stats: QueryStats,
        plan,
        aggregates: Optional[Dict[str, object]] = None,
        groups: Optional[Dict[int, Dict[str, object]]] = None,
        rows: Optional[np.ndarray] = None,
        columns: Optional[Dict[str, np.ndarray]] = None,
    ) -> None:
        if kind not in ("aggregate", "groups", "rows"):
            raise ValueError(f"unknown result kind {kind!r}")
        self.kind = kind
        self.stats = stats
        self.plan = plan
        self.aggregates = aggregates if aggregates is not None else {}
        self.groups = groups if groups is not None else {}
        self.rows = rows if rows is not None else np.empty(0, dtype=np.int64)
        self.columns = columns if columns is not None else {}

    def scalar(self):
        """The single aggregate value of a one-aggregate query."""
        if self.kind != "aggregate" or len(self.aggregates) != 1:
            raise ValueError(
                f"scalar() needs a single-aggregate result, "
                f"got kind={self.kind!r} with {len(self.aggregates)} outputs"
            )
        return next(iter(self.aggregates.values()))

    def __getitem__(self, name: str):
        if self.kind == "aggregate":
            return self.aggregates[name]
        if self.kind == "rows":
            return self.columns[name]
        raise KeyError(
            "index group results via .groups[key][aggregate_name]"
        )

    @property
    def n_rows(self) -> int:
        return int(self.rows.size)

    def describe(self) -> str:
        if self.kind == "aggregate":
            body = ", ".join(f"{k} = {v}" for k, v in self.aggregates.items())
        elif self.kind == "groups":
            body = f"{len(self.groups)} groups"
        else:
            body = f"{self.n_rows:,} rows"
        return f"{self.kind}: {body}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<QueryResult {self.describe()}>"


#: Per-morsel partial state produced by the executor's workers and
#: merged in morsel order (kept here so executor/table share the shape).
@dataclass
class MorselPartial:
    morsel: int
    rows_scanned: int = 0
    rows_matched: int = 0
    #: Chunks in the morsel's candidate runs; each column its kernel
    #: read decoded all of them (``PhysicalPlan.decoded_columns``).
    decoded_chunks: int = 0
    #: Whether the morsel ran the plan's predicate-free covered kernel.
    covered: bool = False
    #: Whether it ran the kernel's native twin.
    native: bool = False
    #: Aggregate partials, one slot per AggSpec (sum -> int, count ->
    #: int, min/max -> Optional[int], mean -> (sum, count)).
    agg: List[object] = field(default_factory=list)
    #: Group partials: key -> per-spec partial list (same shapes).
    groups: Optional[Dict[int, List[object]]] = None
    #: Row-query partials.
    indices: Optional[np.ndarray] = None
    values: Optional[Dict[str, np.ndarray]] = None
