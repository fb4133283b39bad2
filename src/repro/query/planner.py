"""Query planner: predicate pushdown, zone-map pruning, replica policy.

``plan_query`` turns a logical :class:`~repro.query.logical.Query` into
a :class:`PhysicalPlan` the morsel executor runs:

* **Predicate pushdown** — sargable comparisons (bare column vs.
  literal) are extracted from the filter tree and mapped onto zone-map
  chunk pruning.  The whole tree is analyzed, not just top-level
  conjuncts: AND intersects child candidate sets, OR unions them, and
  anything unanalyzable (NOT, ``!=``, arithmetic, column-vs-column)
  conservatively keeps every chunk, so pruning is always sound.
* **Fusion** — filters and aggregates share one scan: the plan carries
  the needed-column set (filter ∪ aggregate ∪ group-key ∪ projection)
  and the executor decodes each needed column's candidate chunks at
  most once per morsel, evaluates the predicate on the decoded spans,
  and folds aggregates in the same pass — no row-index list, no
  per-operator materialization.
* **Covered morsels** — the same zone-map walk also proves which
  chunks match the whole predicate in every row (each leaf's
  ``min >= lo`` and ``max < hi``; AND intersects, OR unions, NOT and
  unsargable leaves cover nothing).  An active morsel whose candidate
  chunks are all covered runs the query's kernel *without* its
  predicate, compiled only for a plan that has one: columns only the
  predicate reads are not decoded there, and no mask is built.
* **Chunk synopses** — an ungrouped aggregate whose columns have
  zone maps answers every covered chunk from the maps'
  per-chunk counts, sums, mins and maxs instead, and only the other
  candidates are decoded; a morsel whose candidates fragment decodes
  their hull in one call (:func:`_bind`).  Each needed column's decode
  is :attr:`PhysicalPlan.predicted_decoded_chunks`.
* **Adaptive read policy** — the section-6 selector
  (:func:`repro.adapt.select_configuration`) is consulted once per
  referenced column, fed the query's projected scan shape
  (post-pruning bytes and blocked-engine instruction costs from
  :mod:`repro.perfmodel.workload`).  The recommended configuration and
  whether the column's actual placement matches it are part of the
  plan's record, not of its execution — the executor always reads the
  socket-local replica (``get_replica(ctx.socket)``) of whatever
  placement the column has — so the selector runs on first access of
  :attr:`PhysicalPlan.decisions` (``explain()`` reads it), over column
  facts captured at plan time.

**Plan once.**  Planning is two steps.  The *shape*
(:func:`_plan_shape`: needed columns, morsel grid, per-column facts,
the compiled kernel) reads no literal, and everything
it reuses is keyed by what it specializes on — the kernel cache by a
literal-free structural key; the zone bounds are the column's own map
— so a repeat of a statement with new bounds compiles, decodes and
selects nothing.  The *binding* (:func:`_bind`: literals -> candidate-chunk
mask -> active and covered morsels) works on each column's map, read
once per plan (:func:`_map_snapshot`): on
a map whose bounds are monotone (a sorted column) each sargable leaf is
four binary searches giving a candidate run and a covered run, and the
mask and morsels follow from the runs by slicing and arithmetic; other
maps compare every chunk's bounds.  Nothing is cached that a generation epoch could
invalidate: the shape is rebuilt per plan from the live table.

Everything the plan decides is visible through :meth:`PhysicalPlan.
explain`, including exact pruned/candidate chunk counts — the numbers
are computed from the zone maps at plan time, so tests can assert that
execution's observed ``replica_read_elements`` deltas equal
:attr:`PhysicalPlan.predicted_replica_read_elements` per needed column.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from ..adapt import (
    ArrayCharacteristics,
    MachineCapabilities,
    SelectionResult,
    WorkloadMeasurement,
    select_configuration,
)
from ..core import bitpack, native
from ..core.map_api import SUPERCHUNK_ELEMENTS, check_superchunk
from ..core.smart_array import SmartArray
from ..core.zonemap import (ZoneMap, _chunk_runs, edges_hulled,
                            window_hulls)
from ..numa.counters import PerfCounters
from ..numa.topology import MachineSpec
from ..obs.registry import registry as _obs_registry
from ..obs.trace import trace
from ..perfmodel.workload import blocked_scan_instructions
from .codegen import CompiledKernel, compile_query
from .expr import And, Compare, Expr, Not, Or
from .logical import Query

#: Default morsel: 16 superchunks.  Morsels are superchunk-aligned, so
#: no chunk is ever decoded by two morsels.  The blocked decoder runs a
#: fixed number of shift/mask passes per run regardless of run length,
#: and the kernel touches each span a constant number of times, so
#: larger runs amortize per-call overhead without changing any result
#: (aggregation is exact integer arithmetic, independent of morsel
#: boundaries).  A ``limit()`` query defaults to one superchunk
#: (:data:`~repro.core.map_api.SUPERCHUNK_ELEMENTS`) instead: its early
#: exit skips whole morsels, so a smaller morsel decodes less past the
#: budget.  An explicit ``morsel=`` knob wins either way.
DEFAULT_MORSEL_ELEMENTS = 65536

#: Analytics tables are scanned repeatedly over their lifetime; the
#: selector's replication rules need an accesses-per-element estimate to
#: amortize replica construction against (section 6's software
#: characteristics).  Callers with one-shot tables can pass 1.0.
DEFAULT_ACCESSES_PER_ELEMENT = 8.0


@dataclass(frozen=True)
class PushedPredicate:
    """One sargable leaf the planner pushed into zone-map pruning."""

    column: str
    lo: int
    hi: int  # >= 2**64 means unbounded above
    candidate_chunks: int
    pruned_chunks: int

    def describe(self) -> str:
        hi = "inf" if self.hi >= 1 << 64 else str(self.hi)
        return (
            f"{self.column} in [{self.lo}, {hi}): "
            f"{self.candidate_chunks} candidate / "
            f"{self.pruned_chunks} pruned chunks"
        )


@dataclass(frozen=True)
class ColumnDecision:
    """Per-column physical-read decision with selector provenance.

    The storage facts are captured when the plan is made; the selector
    fields (``recommended`` / ``matches_actual`` / ``selection``) are
    ``None`` until :attr:`PhysicalPlan.decisions` consults the selector.
    """

    name: str
    bits: int
    placement: str
    n_replicas: int
    engine: str  # always "blocked": the bulk-span scan engine
    read_policy: str
    recommended: Optional[str]  # selector's configuration, None if skipped
    matches_actual: Optional[bool]
    selection: Optional[SelectionResult] = field(repr=False, default=None)
    #: Storage-generation epoch the plan was made against.  A live
    #: migration bumps the column's epoch, so a mismatch at execution
    #: time means the plan describes a configuration that no longer
    #: exists (the executor still reads consistently — it re-resolves
    #: the active generation per morsel).
    generation: int = 0
    #: Storage layout of the generation the plan was made against
    #: (``"bitpack"`` unless the column is codec-encoded).
    codec: str = "bitpack"

    def describe(self) -> str:
        rec = ""
        if self.recommended is not None:
            verdict = "matches" if self.matches_actual else "differs"
            rec = f"; selector recommends {self.recommended} ({verdict})"
        layout = f" {self.codec}" if self.codec != "bitpack" else ""
        return (
            f"{self.name}: {self.bits}b{layout} {self.placement} (gen "
            f"{self.generation}), engine={self.engine}, "
            f"{self.read_policy}{rec}"
        )


#: Chunks that are one run ``(first, stop)`` — what a sargable leaf binds
#: to on a monotone zone map — or a per-chunk boolean mask.  Runs are
#: plain tuples: a point query builds several per plan.
_Chunks = Union[Tuple[int, int], np.ndarray]

#: A subtree's candidate chunks, ``None`` when the subtree cannot prune.
_Candidates = Optional[_Chunks]

#: No chunk: what an unprovable subtree covers.
_NO_CHUNKS = (0, 0)

#: What a morsel's kernel decodes: ``None`` = every chunk, a tuple of
#: disjoint runs ``(first, stop)``, or a per-chunk mask.
_Decode = Union[None, Tuple[Tuple[int, int], ...], np.ndarray]


def _as_mask(chunks: _Chunks, n_chunks: int) -> np.ndarray:
    if isinstance(chunks, tuple):
        mask = np.zeros(n_chunks, dtype=bool)
        mask[chunks[0]:chunks[1]] = True
        return mask
    return chunks


def _intersect(left: _Chunks, right: _Chunks, n_chunks: int) -> _Chunks:
    if isinstance(left, tuple) and isinstance(right, tuple):
        first = left[0] if left[0] > right[0] else right[0]
        stop = left[1] if left[1] < right[1] else right[1]
        return (first, stop if stop > first else first)
    return _as_mask(left, n_chunks) & _as_mask(right, n_chunks)


def _union(left: _Chunks, right: _Chunks, n_chunks: int) -> _Chunks:
    if isinstance(left, tuple) and isinstance(right, tuple):
        if left[0] == left[1]:
            return right
        if right[0] == right[1]:
            return left
        if max(left[0], right[0]) <= min(left[1], right[1]):
            return (min(left[0], right[0]), max(left[1], right[1]))
    return _as_mask(left, n_chunks) | _as_mask(right, n_chunks)


def _candidate_mask(expr: Optional[Expr], zone_maps: Dict[str, ZoneMap],
                    n_chunks: int, pushed: List[PushedPredicate],
                    ) -> Tuple[_Candidates, _Chunks]:
    """``(candidates, covered)`` chunks for ``expr``: candidates ``None``
    = cannot prune; covered = chunks the zone maps prove match ``expr``
    in every row.

    Sound by construction: a chunk is dropped only when the zone maps
    prove no row in it can satisfy the expression, and covered only when
    they prove every row does (a leaf's ``min >= lo`` and ``max < hi``).
    AND intersects both sets, OR unions them; NOT and unsargable leaves
    prune nothing and cover nothing.  Leaves on monotone maps bind to
    runs, and runs stay runs under AND and under OR when they touch, so
    a range over a sorted column never materializes a per-chunk mask
    here.
    """
    if expr is None or n_chunks == 0:
        return None, _NO_CHUNKS
    if isinstance(expr, (And, Or)):
        left, left_cov = _candidate_mask(expr.left, zone_maps, n_chunks,
                                         pushed)
        right, right_cov = _candidate_mask(expr.right, zone_maps, n_chunks,
                                           pushed)
        if isinstance(expr, And):
            covered = _intersect(left_cov, right_cov, n_chunks)
            if left is None:
                return right, covered
            if right is None:
                return left, covered
            return _intersect(left, right, n_chunks), covered
        covered = _union(left_cov, right_cov, n_chunks)
        if left is None or right is None:
            return None, covered  # one side unprunable -> any chunk may match
        return _union(left, right, n_chunks), covered
    if isinstance(expr, Compare):
        rng = expr.as_range()
        if rng is None:
            return None, _NO_CHUNKS
        column, lo, hi = rng
        zm = zone_maps.get(column)
        if zm is None:
            return None, _NO_CHUNKS
        run = zm.candidate_run(lo, hi)
        if run is not None:
            candidates: _Chunks = run
            covered: _Chunks = (zm.covered_run(lo, hi) if run[1] > run[0]
                                else _NO_CHUNKS)
            if covered is None:
                covered = zm._compare_covered(lo, hi)
            count = run[1] - run[0]
        else:
            chunks = zm.candidate_chunks(lo, hi)
            candidates = np.zeros(n_chunks, dtype=bool)
            candidates[chunks] = True
            covered = zm._compare_covered(lo, hi)
            count = int(chunks.size)
        pushed.append(PushedPredicate(
            column=column, lo=max(lo, 0), hi=hi,
            candidate_chunks=count, pruned_chunks=n_chunks - count,
        ))
        return candidates, covered
    # NOT and anything else: no pruning or covering information.
    return None, _NO_CHUNKS


def _column_facts(name: str, array: SmartArray) -> ColumnDecision:
    """What the plan records about ``array`` as it is stored right now."""
    return ColumnDecision(
        name=name, bits=array.bits, placement=array.placement.describe(),
        n_replicas=array.n_replicas, engine="blocked",
        read_policy=("socket-local replica reads" if array.replicated
                     else "single-buffer reads"),
        recommended=None, matches_actual=None,
        generation=getattr(array, "generation_epoch", 0),
        codec=getattr(array.generation, "codec", "bitpack"),
    )


def _consult_selector(facts: ColumnDecision, n_rows: int,
                      scan_elements: int, caps: MachineCapabilities,
                      accesses_per_element: float) -> ColumnDecision:
    """``facts`` plus the adaptive selector's verdict on that column for
    a scan of ``scan_elements`` elements."""
    chars = ArrayCharacteristics(
        length=n_rows,
        element_bits=facts.bits,
        scan_engine="blocked",
    )
    # Simulated profiling counters for the query's scan shape on the
    # paper's baseline (uncompressed reads at the machine's bandwidth).
    bytes_from_memory = float(scan_elements) * 8.0
    bw = caps.bw_max_memory_gbs
    time_s = max(bytes_from_memory / (bw * 1e9), 1e-9)
    counters = PerfCounters(
        time_s=time_s,
        instructions=blocked_scan_instructions(scan_elements, 64),
        bytes_from_memory=bytes_from_memory,
        memory_bandwidth_gbs=bw,
        memory_bound=True,
        label=f"query scan of {facts.name}",
    )
    measurement = WorkloadMeasurement(
        counters=counters,
        read_only=True,
        linear_accesses_per_element=accesses_per_element,
        accesses_per_second=scan_elements / time_s,
    )
    selection = select_configuration(caps, chars, measurement)
    config = selection.configuration
    return replace(
        facts, recommended=config.describe(),
        matches_actual=(config.placement.describe() == facts.placement
                        and config.bits == facts.bits),
        selection=selection,
    )


@dataclass
class PhysicalPlan:
    """Everything the morsel executor needs, plus the explain record."""

    query: Query
    needed_columns: Tuple[str, ...]
    morsel_elements: int
    morsels: List[Tuple[int, int]]
    #: Candidate chunks: a run ``(first, stop)`` (a range on a sorted
    #: column), a per-chunk mask, or ``None`` = every chunk.
    candidates: _Candidates
    chunks_total: int
    chunks_candidate: int
    chunks_pruned: int
    morsels_pruned: int  # known at plan time from the candidate mask
    #: Indices of morsels with at least one candidate chunk (None =
    #: every morsel).  The executor only ever visits these, so a
    #: hard-pruning plan pays nothing per skipped morsel.
    active_morsels: Optional[np.ndarray]
    #: Indices of *covered* morsels: active morsels whose every candidate
    #: chunk the zone maps prove matches the whole predicate.  They run
    #: :attr:`covered_kernel` instead of :attr:`kernel`.
    covered_morsels: np.ndarray
    #: Candidate chunks inside covered morsels — chunks the columns only
    #: the predicate reads are not decoded for.
    chunks_covered: int
    pushed: List[PushedPredicate]
    #: Per needed column, the storage facts captured at plan time (the
    #: selector fields still ``None``; see :attr:`decisions`).
    column_facts: Dict[str, ColumnDecision]
    #: ``(machine, accesses_per_element)`` the selector is consulted
    #: with; ``None`` = ``consult_selector=False``.
    selector_inputs: Optional[Tuple[MachineSpec, float]]
    est_instructions: float
    #: The generated morsel kernel (source + callable) the executor
    #: runs; see :mod:`repro.query.codegen`.
    kernel: CompiledKernel
    #: The same query's kernel without its predicate, over the columns it
    #: outputs; compiled only when :attr:`covered_morsels` is non-empty
    #: and the plan has no :attr:`synopsis`.
    covered_kernel: Optional[CompiledKernel]
    #: What a morsel's kernel decodes, clipped to the morsel: ``None`` =
    #: every chunk, a tuple of runs ``(first, stop)``, or a per-chunk
    #: mask (a morsel in :attr:`hulls` decodes its hull instead).
    decode: _Decode = None
    #: Morsels the executor runs a kernel on (``None`` = every morsel):
    #: :attr:`active_morsels`, less those the synopses answer whole.
    work_morsels: Optional[np.ndarray] = None
    #: Morsel index -> ``(first, stop)`` chunk hull it decodes in one
    #: call, for the morsels whose chunks to decode fragment
    #: (:func:`~repro.core.zonemap.window_hulls`).
    hulls: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    #: Chunks the plan's predicate kernel decodes per needed column:
    #: every visited morsel's but the covered-kernel ones, hulls whole.
    chunks_kernel: int = 0
    #: Covered chunks answered from the aggregated columns' chunk
    #: synopses (a run or a mask), ``None`` = none; see :func:`_bind`.
    synopsis: Optional[_Chunks] = None
    synopsis_chunks: int = 0
    #: Aggregated column -> the zone map whose synopses answer
    #: :attr:`synopsis`; ``None`` when no synopsis can answer the query
    #: (see :func:`_synopsis_maps`).
    synopsis_maps: Optional[Dict[str, ZoneMap]] = None
    _decisions: Optional[Dict[str, ColumnDecision]] = field(
        default=None, init=False, repr=False)

    @property
    def table(self):
        return self.query.table

    @property
    def decisions(self) -> Dict[str, ColumnDecision]:
        """Per needed column: the plan-time facts plus what the
        section-6 selector recommends for this plan's post-pruning scan.

        The selector feeds only this record, so it runs here, on first
        access, not on every plan; its inputs were fixed at plan time,
        so the answer does not depend on when it is asked.
        """
        if self._decisions is None:
            decisions = self.column_facts
            scan_elements = 64 * self.chunks_candidate
            n_rows = self.table.n_rows
            if self.selector_inputs is not None and n_rows and scan_elements:
                machine, accesses_per_element = self.selector_inputs
                caps = MachineCapabilities(machine)
                decisions = {
                    name: _consult_selector(facts, n_rows, scan_elements,
                                            caps, accesses_per_element)
                    for name, facts in decisions.items()
                }
            self._decisions = decisions
        return self._decisions

    def decoded_columns(self, covered: bool) -> Tuple[str, ...]:
        """The columns a morsel decodes, and is billed for: every needed
        column, or on a covered morsel only those
        :attr:`covered_kernel` reads."""
        return self.covered_kernel.columns if covered else self.needed_columns

    @property
    def predicted_decoded_chunks(self) -> Dict[str, int]:
        """Per needed column: chunks the scan will decode — the predicate
        kernel's (:attr:`chunks_kernel`), plus the covered morsels' for a
        column the covered kernel reads."""
        covered = (set(self.covered_kernel.columns)
                   if self.covered_kernel is not None else ())
        return {
            name: self.chunks_kernel + (
                self.chunks_covered if name in covered else 0)
            for name in self.needed_columns
        }

    @property
    def predicted_replica_read_elements(self) -> Dict[str, int]:
        """Per needed column: elements the scan engine will decode
        (padding slots of a trailing partial chunk included, matching
        ``replica_read_elements`` accounting)."""
        return {name: 64 * chunks
                for name, chunks in self.predicted_decoded_chunks.items()}

    def execute(self, pool=None, cancel=None, timeout_s=None):
        """Run this plan; see :func:`repro.query.executor.execute`.

        Plans execute themselves so callers (``Query.run``, the SQL
        server) stay agnostic of the plan's flavour — a distributed
        plan from :mod:`repro.cluster` honours the same signature.
        """
        from .executor import execute

        return execute(self, pool=pool, cancel=cancel, timeout_s=timeout_s)

    @property
    def candidate_mask(self) -> Optional[np.ndarray]:
        """Per-chunk candidate mask (``None`` = all candidates),
        materialized on access."""
        if self.candidates is None:
            return None
        return _as_mask(self.candidates, self.chunks_total)

    def morsel_runs(self, index: int) -> List[Tuple[int, int]]:
        """The ``(first, count)`` chunk runs morsel ``index``'s kernel
        decodes: :attr:`decode` clipped to the morsel, or its hull."""
        start, stop = self.morsels[index]
        first = start // bitpack.CHUNK_ELEMENTS
        end = -(-stop // bitpack.CHUNK_ELEMENTS)
        decode = self.decode
        if decode is None:
            return [(first, end - first)]
        if isinstance(decode, tuple):
            runs = []
            for run_first, run_stop in decode:
                lo, hi = max(first, run_first), min(end, run_stop)
                if hi > lo:
                    runs.append((lo, hi - lo))
            return runs
        hull = self.hulls.get(index)
        if hull is not None:
            return [(hull[0], hull[1] - hull[0])]
        local = decode[first:end]
        if local.all():
            return [(first, end - first)]
        return list(_chunk_runs(np.flatnonzero(local) + first, end - first))

    def morsel_candidates(self, start: int, stop: int) -> np.ndarray:
        """Candidate chunk indices covering rows ``[start, stop)``."""
        first = start // bitpack.CHUNK_ELEMENTS
        end = -(-stop // bitpack.CHUNK_ELEMENTS)
        candidates = self.candidates
        if candidates is None:
            return np.arange(first, end, dtype=np.int64)
        if isinstance(candidates, tuple):
            return np.arange(max(first, candidates[0]),
                             min(end, candidates[1]), dtype=np.int64)
        local = np.nonzero(candidates[first:end])[0]
        return local.astype(np.int64) + first

    def explain(self) -> str:
        q = self.query
        lines = ["== logical plan =="]
        lines += ["  " + line for line in q.describe().splitlines()]
        lines.append("== physical plan ==")
        if self.pushed:
            lines.append("  pushed-down predicates (zone-map pruning):")
            lines += ["    " + p.describe() for p in self.pushed]
        elif q.predicate is not None:
            lines.append("  pushed-down predicates: none "
                         "(predicate not sargable or no zone maps built)")
        lines.append(
            f"  chunks: {self.chunks_total} total, "
            f"{self.chunks_candidate} candidate, {self.chunks_pruned} pruned"
        )
        lines.append(
            f"  morsels: {len(self.morsels)} x {self.morsel_elements} "
            f"elements (superchunk-aligned), "
            f"{self.morsels_pruned} fully pruned"
        )
        active = len(self.morsels) - self.morsels_pruned
        lines.append(
            f"  covered morsels: {self.covered_morsels.size} of {active} "
            f"(zone maps prove the predicate; it is not evaluated there)"
        )
        if self.synopsis_maps is not None:
            lines.append(
                f"  synopsis chunks: {self.synopsis_chunks} of "
                f"{self.chunks_candidate} candidates (answered from "
                f"per-chunk count/sum/min/max, not decoded)"
            )
        if self.hulls:
            lines.append(
                f"  fragmented morsels: {len(self.hulls)} decode their "
                f"candidate hull in one call"
            )
        lines.append("  columns read (fused single pass):")
        for name, chunks in self.predicted_decoded_chunks.items():
            lines.append("    " + self.decisions[name].describe())
            lines.append(
                f"      will decode {chunks} chunks = {64 * chunks} elements"
            )
        lines.append(
            f"  estimated scan instructions: {self.est_instructions:,.0f}"
        )
        lines.append("  execution mode: compiled (fused kernel)")
        lines.append("  generated kernel:")
        lines += [
            "    " + src_line
            for src_line in self.kernel.source.rstrip().splitlines()
        ]
        lines.append("  lowering: " + self._lowering(self.kernel))
        if self.kernel.literals:
            lines.append("  literals: " + ", ".join(
                f"lits[{k}] = {value}"
                for k, value in enumerate(self.kernel.literals)
            ))
        if self.covered_kernel is not None:
            lines.append("  covered-morsel kernel (no predicate):")
            lines += [
                "    " + src_line
                for src_line in self.covered_kernel.source.rstrip()
                .splitlines()
            ]
            lines.append("  covered-morsel lowering: "
                         + self._lowering(self.covered_kernel))
        return "\n".join(lines)

    def _lowering(self, kernel: CompiledKernel) -> str:
        """How ``kernel``'s morsels run, as the columns are stored now:
        ``native`` (and the fused scan it calls) when the native scans
        are loaded, the shape lowers and every column it reads is
        bit-packed, else ``numpy`` (the generated kernel above).  A
        morsel decides again from the generations it pins."""
        if (kernel.native is None or native.LIB is None
                or any(self.table[name].codec != "bitpack"
                       for name in kernel.columns)):
            return "numpy"
        return "native: " + kernel.native.describe()


def plan_query(
    query: Query,
    morsel: Optional[int] = None,
    prune: str = "auto",
    pool=None,
    accesses_per_element: float = DEFAULT_ACCESSES_PER_ELEMENT,
    consult_selector: bool = True,
) -> PhysicalPlan:
    """Build the physical plan for ``query``.

    ``prune`` controls zone-map use: ``"auto"`` uses the zone maps the
    columns carry (see :meth:`SmartTable.build_zone_map`), ``"off"``
    disables pruning.

    ``morsel`` defaults to :data:`DEFAULT_MORSEL_ELEMENTS`, or one
    superchunk for a ``limit()`` query.
    """
    query.validate()
    if prune not in ("auto", "off"):
        raise ValueError(f"prune must be 'auto' or 'off', got {prune!r}")
    with trace("query.plan", prune=prune):
        plan = _plan_query(query, morsel, prune, pool,
                           accesses_per_element, consult_selector)
        reg = _obs_registry()
        reg.counter("query.plans").add(1)
        reg.counter("query.chunks_candidate").add(plan.chunks_candidate)
        reg.counter("query.chunks_pruned").add(plan.chunks_pruned)
        reg.counter("query.morsels_pruned_at_plan").add(plan.morsels_pruned)
        if plan.covered_kernel is not None or plan.synopsis_chunks:
            reg.counter("query.plans_covered").add(1)
        return plan


class _PlanShape(NamedTuple):
    """The part of a plan no literal decides (see :func:`_plan_shape`)."""

    needed_columns: Tuple[str, ...]
    morsel_elements: int
    morsels: List[Tuple[int, int]]
    column_facts: Dict[str, ColumnDecision]
    kernel: CompiledKernel


def _plan_shape(query: Query, morsel: Optional[int]) -> _PlanShape:
    """Everything about ``query``'s plan that its literals do not decide:
    the columns to decode, the morsel grid, each column's storage facts
    and the compiled kernel (whose *function* is shared by the whole
    shape; only ``kernel.literals`` is this statement's)."""
    table = query.table
    n_rows = table.n_rows

    if morsel is None:
        morsel = (SUPERCHUNK_ELEMENTS if query.limit_rows is not None
                  else DEFAULT_MORSEL_ELEMENTS)
    morsel_elements = check_superchunk(morsel)

    # Needed columns, in first-use order: filter, group key, aggregates,
    # projection.  Each is decoded at most once per candidate-chunk run.
    needed: List[str] = []

    def need(name: str) -> None:
        if name not in needed:
            needed.append(name)

    if query.predicate is not None:
        for name in sorted(query.predicate.columns()):
            need(name)
    if query.group_key is not None:
        need(query.group_key)
    for spec in query.aggregates:
        if spec.column is not None:
            need(spec.column)
    for name in query.projection or ():
        need(name)
    if not needed and n_rows:
        # Pure count(*) or bare limit query: scan the cheapest column.
        cheapest = min(table.column_names, key=lambda n: table[n].bits)
        if query.aggregates or query.projection is not None or \
                query.predicate is not None:
            need(cheapest)

    # Specialize the kernel's aggregate folds on the *decoded value*
    # width: for codec-encoded columns ``bits`` is the narrow payload
    # (codes/deltas) while ``decode_chunks`` hands the kernel
    # full-magnitude values — a fold sized to payload bits could
    # silently wrap its uint64 accumulator.
    kernel = compile_query(
        query,
        tuple(needed),
        {name: getattr(table[name], "value_bits", table[name].bits)
         for name in needed},
        morsel_elements,
    )

    return _PlanShape(
        needed_columns=tuple(needed),
        morsel_elements=morsel_elements,
        morsels=[
            (start, min(start + morsel_elements, n_rows))
            for start in range(0, n_rows, morsel_elements)
        ],
        column_facts={name: _column_facts(name, table[name])
                      for name in needed},
        kernel=kernel,
    )


class _Binding(NamedTuple):
    """What :func:`_bind` decides for one statement (the
    :class:`PhysicalPlan` fields of the same names)."""

    candidates: _Candidates
    pushed: List[PushedPredicate]
    active_morsels: Optional[np.ndarray]
    chunks_candidate: int
    covered_morsels: np.ndarray
    chunks_covered: int
    decode: _Decode
    work_morsels: Optional[np.ndarray]
    hulls: Dict[int, Tuple[int, int]]
    chunks_kernel: int
    synopsis: Optional[_Chunks] = None
    synopsis_chunks: int = 0
    synopsis_maps: Optional[Dict[str, ZoneMap]] = None


_NO_MORSELS = np.empty(0, dtype=np.int64)
_NO_MORSELS.flags.writeable = False


def _map_snapshot(table, names) -> Dict[str, Optional[ZoneMap]]:
    """Each named column's zone map, read once: a write replaces a
    column's map, so a plan that decides every prune, cover and synopsis
    from these reads from one snapshot per column."""
    return {name: table.column(name).zone_map for name in names}


def _synopsis_maps(query: Query, maps: Optional[Dict[str, ZoneMap]]
                   ) -> Optional[Dict[str, ZoneMap]]:
    """Per aggregated column, the zone map (from ``maps``, the plan's
    snapshot) whose chunk synopses can answer covered chunks of
    ``query`` — ``None`` when they cannot: a group-by or row query,
    pruning off, or an aggregated column with no map (or, for
    ``sum``/``mean``, one too wide to keep sums).  ``count(*)`` needs
    no map: a chunk's row count is its geometry."""
    if maps is None or not query.aggregates or query.group_key is not None:
        return None
    chosen: Dict[str, ZoneMap] = {}
    for spec in query.aggregates:
        if spec.column is None:
            continue
        zm = maps[spec.column]
        if zm is None or (spec.kind in ("sum", "mean") and zm.sums is None):
            return None
        chosen[spec.column] = zm
    return chosen


def _run_morsels(first: int, stop: int, per_morsel: int) -> np.ndarray:
    """Indices of the morsels chunks ``[first, stop)`` touch."""
    return np.arange(first // per_morsel, -(-stop // per_morsel),
                     dtype=np.int64)


def _bind(query: Query, shape: _PlanShape, prune: str) -> _Binding:
    """The statement's literals against the zone maps: candidate chunks
    and the morsels they activate, the morsels whose candidates are all
    covered, and — for an aggregate whose columns have current chunk
    synopses — the covered chunks those synopses answer.

    With synopses, every covered candidate chunk is answered from them
    and only the others go to the predicate kernel: on a run binding
    (monotone maps) at most two edge runs per morsel.  A morsel whose
    chunks to decode fragment — runs whose extra decode calls cost more
    than the gap chunks between them (:func:`~repro.core.zonemap.
    window_hulls`) — decodes their hull under the predicate instead, and
    the covered chunks inside a hull are then counted by the kernel, not
    by their synopses.  Without synopses the covered morsels
    run the predicate-free covered kernel over their exact candidate
    runs — never a hull — and every other active morsel the predicate
    kernel.  A plan that cannot prune covers nothing; a predicate-free
    aggregate with synopses answers every chunk from them.
    """
    table = query.table
    n_rows = table.n_rows
    n_chunks = bitpack.chunks_for(n_rows)

    maps = None if prune == "off" or not n_rows else _map_snapshot(
        table, shape.needed_columns)
    zone_maps: Dict[str, ZoneMap] = {}
    if maps is not None and query.predicate is not None:
        for name in sorted(_sargable_columns(query.predicate)):
            if maps[name] is not None:
                zone_maps[name] = maps[name]
    synopsis_maps = _synopsis_maps(query, maps)

    pushed: List[PushedPredicate] = []
    candidates, covered = _candidate_mask(
        query.predicate if prune != "off" else None,
        zone_maps, n_chunks, pushed,
    )
    if candidates is None:
        if synopsis_maps is not None and query.predicate is None:
            return _Binding(None, pushed, None, n_chunks, _NO_MORSELS, 0,
                            (), _NO_MORSELS, {}, 0, (0, n_chunks),
                            n_chunks, synopsis_maps)
        return _Binding(None, pushed, None, n_chunks, _NO_MORSELS, 0,
                        None, None, {}, n_chunks,
                        synopsis_maps=synopsis_maps)

    # Morsels are uniform superchunk windows.
    per_morsel = shape.morsel_elements // bitpack.CHUNK_ELEMENTS
    if isinstance(candidates, tuple) and isinstance(covered, tuple):
        # A run's morsels are a run too, and so are the covered ones:
        # plain arithmetic, no per-chunk work.
        first, stop = candidates
        if stop == first:
            return _Binding(candidates, pushed, _NO_MORSELS, 0, _NO_MORSELS,
                            0, (), _NO_MORSELS, {}, 0,
                            synopsis_maps=synopsis_maps)
        active_morsels = _run_morsels(first, stop, per_morsel)
        cover_first = max(first, covered[0])
        cover_stop = min(stop, covered[1])
        covered_morsels, chunks_covered = _NO_MORSELS, 0
        if cover_stop > cover_first:
            # A morsel is covered when its candidates, the run clipped
            # to the morsel, lie inside the covered run.
            m_first = (first // per_morsel if cover_first == first
                       else -(-cover_first // per_morsel))
            m_stop = (-(-stop // per_morsel) if cover_stop == stop
                      else cover_stop // per_morsel)
            if m_stop > m_first:
                covered_morsels = np.arange(m_first, m_stop, dtype=np.int64)
                chunks_covered = (min(stop, m_stop * per_morsel)
                                  - max(first, m_first * per_morsel))
            if synopsis_maps is not None and not edges_hulled(
                    first, stop, cover_first, cover_stop, per_morsel):
                # (Edge runs in one morsel around fewer covered chunks
                # than a second decode call is worth: the morsel decodes
                # the whole run, as window_hulls would, and nothing is
                # left for the synopses.)
                edges = tuple(run for run in ((first, cover_first),
                                              (cover_stop, stop))
                              if run[1] > run[0])
                work = (np.unique(np.concatenate(
                    [_run_morsels(*run, per_morsel) for run in edges]))
                    if edges else _NO_MORSELS)
                return _Binding(
                    candidates, pushed, active_morsels, stop - first,
                    covered_morsels, chunks_covered, edges, work, {},
                    sum(run[1] - run[0] for run in edges),
                    (cover_first, cover_stop), cover_stop - cover_first,
                    synopsis_maps)
        return _Binding(candidates, pushed, active_morsels, stop - first,
                        covered_morsels, chunks_covered, ((first, stop),),
                        active_morsels, {}, stop - first - chunks_covered,
                        synopsis_maps=synopsis_maps)

    # Per-morsel candidacy is one padded reshape — no per-morsel Python.
    candidates = _as_mask(candidates, n_chunks)
    n_morsels = len(shape.morsels)
    padded = np.zeros(n_morsels * per_morsel, dtype=bool)
    padded[:n_chunks] = candidates
    grid = padded.reshape(n_morsels, per_morsel)
    has_candidates = grid.any(axis=1)
    active_morsels = np.nonzero(has_candidates)[0].astype(np.int64)
    covered_morsels, chunks_covered = _NO_MORSELS, 0
    covered = _as_mask(covered, n_chunks)
    is_covered = None
    if covered.any():
        per_morsel_candidates = grid.sum(axis=1)
        padded[:n_chunks] &= ~covered  # candidates left uncovered
        is_covered = has_candidates & ~grid.any(axis=1)
        covered_morsels = np.nonzero(is_covered)[0].astype(np.int64)
        chunks_covered = int(per_morsel_candidates[covered_morsels].sum())
    chunks_candidate = int(np.count_nonzero(candidates))
    if synopsis_maps is not None:
        # ``padded`` holds the uncovered candidates: all the kernel
        # decodes, but for hulls.
        decode = padded[:n_chunks].copy()
    else:
        # The kernel decodes every candidate; the covered morsels' run
        # the covered kernel, never a hull.
        decode = candidates
        padded[:n_chunks] = candidates
        if covered_morsels.size:
            grid[is_covered] = False
    hull_first, hull_stop = window_hulls(padded[:n_chunks], per_morsel)
    hull_morsels = np.flatnonzero(hull_stop)
    hulls = dict(zip(hull_morsels.tolist(),
                     zip(hull_first[hull_morsels].tolist(),
                         hull_stop[hull_morsels].tolist())))
    for lo, hi in hulls.values():
        padded[lo:hi] = True
    chunks_kernel = int(np.count_nonzero(padded))
    if synopsis_maps is None:
        return _Binding(candidates, pushed, active_morsels, chunks_candidate,
                        covered_morsels, chunks_covered, decode,
                        active_morsels, hulls, chunks_kernel)
    synopsis = covered & ~padded[:n_chunks] if hulls else covered
    return _Binding(candidates, pushed, active_morsels, chunks_candidate,
                    covered_morsels, chunks_covered, decode,
                    np.flatnonzero(grid.any(axis=1)).astype(np.int64),
                    hulls, chunks_kernel, synopsis,
                    int(np.count_nonzero(synopsis)), synopsis_maps)


def _plan_query(
    query: Query,
    morsel: Optional[int],
    prune: str,
    pool,
    accesses_per_element: float,
    consult_selector: bool,
) -> PhysicalPlan:
    shape = _plan_shape(query, morsel)
    binding = _bind(query, shape, prune)

    table = query.table
    n_chunks = bitpack.chunks_for(table.n_rows)

    covered_kernel = None
    if binding.covered_morsels.size and binding.synopsis is None:
        # Compiled only for a plan that has a covered morsel: the same
        # query without its predicate, over the columns it outputs.
        kernel = shape.kernel
        columns = _output_columns(query, shape.needed_columns)
        covered_kernel = compile_query(
            _without_predicate(query), columns,
            {name: kernel.column_bits[name] for name in columns},
            shape.morsel_elements)

    selector_inputs = None
    if consult_selector:
        machine = pool.machine if pool is not None else None
        if machine is None:
            from ..core.allocate import default_machine

            machine = default_machine()
        selector_inputs = (machine, accesses_per_element)

    active_morsels = binding.active_morsels
    plan = PhysicalPlan(
        query=query,
        needed_columns=shape.needed_columns,
        morsel_elements=shape.morsel_elements,
        morsels=shape.morsels,
        chunks_total=n_chunks,
        chunks_pruned=n_chunks - binding.chunks_candidate,
        morsels_pruned=(len(shape.morsels) - int(active_morsels.size)
                        if active_morsels is not None else 0),
        column_facts=shape.column_facts,
        selector_inputs=selector_inputs,
        est_instructions=0.0,
        kernel=shape.kernel,
        covered_kernel=covered_kernel,
        **binding._asdict(),
    )
    plan.est_instructions = sum(
        (blocked_scan_instructions(64 * chunks, shape.column_facts[name].bits)
         for name, chunks in plan.predicted_decoded_chunks.items()), 0.0)
    return plan


def _without_predicate(query: Query) -> Query:
    """``query`` with its filter dropped: what a covered morsel runs (a
    shallow copy; ``copy.copy`` costs five times as much per plan)."""
    bare = Query.__new__(Query)
    bare.__dict__.update(query.__dict__, predicate=None)
    return bare


def _output_columns(query: Query,
                    needed_columns: Tuple[str, ...]) -> Tuple[str, ...]:
    """The needed columns a covered morsel still decodes — group key,
    aggregate and projected columns — in decode order."""
    outputs = {query.group_key, *(query.projection or ())}
    outputs.update(spec.column for spec in query.aggregates)
    return tuple(name for name in needed_columns if name in outputs)


def _sargable_columns(expr: Expr) -> set:
    """Columns referenced by at least one sargable comparison leaf."""
    out = set()
    if isinstance(expr, (And, Or)):
        out |= _sargable_columns(expr.left)
        out |= _sargable_columns(expr.right)
    elif isinstance(expr, Compare):
        rng = expr.as_range()
        if rng is not None:
            out.add(rng[0])
    return out

