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
  and the executor decodes each needed column's *candidate chunks
  exactly once* per morsel, evaluates the predicate on the decoded
  spans, and folds aggregates in the same pass — no row-index list, no
  per-operator materialization.
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
literal-free structural key, the zone bounds by the map that owns them
— so a repeat of a statement with new bounds compiles, decodes and
selects nothing.  The *binding* (:func:`_bind`: literals -> candidate-chunk
mask -> active morsels) works on the cached zone bounds: on a map whose
bounds are monotone (a sorted column) each sargable leaf is two binary
searches giving one chunk run, and the mask and active morsels follow
from the run by slicing and arithmetic; other maps compare every
chunk's bounds.  Nothing is cached that a generation epoch could
invalidate: the shape is rebuilt per plan from the live table.

Everything the plan decides is visible through :meth:`PhysicalPlan.
explain`, including exact pruned/candidate chunk counts — the numbers
are computed from the zone maps at plan time, so tests can assert that
execution's observed ``replica_read_elements`` deltas equal
``64 * candidate_chunks`` per needed column.
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
from ..core import bitpack
from ..core.map_api import SUPERCHUNK_ELEMENTS, check_superchunk
from ..core.smart_array import SmartArray
from ..core.zonemap import ZoneMap
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


class _Run(NamedTuple):
    """Candidate chunks that are one run ``[first, stop)`` — what a
    sargable leaf binds to on a monotone zone map."""

    first: int
    stop: int


#: A subtree's candidate chunks: a run, a per-chunk mask, or ``None``
#: when the subtree cannot prune.
_Candidates = Union[_Run, np.ndarray, None]


def _as_mask(candidates: Union[_Run, np.ndarray],
             n_chunks: int) -> np.ndarray:
    if isinstance(candidates, _Run):
        mask = np.zeros(n_chunks, dtype=bool)
        mask[candidates.first:candidates.stop] = True
        return mask
    return candidates


def _candidate_mask(expr: Optional[Expr], zone_maps: Dict[str, ZoneMap],
                    n_chunks: int,
                    pushed: List[PushedPredicate]) -> _Candidates:
    """Candidate chunks for ``expr``; ``None`` = cannot prune.

    Sound by construction: a chunk is dropped only when the zone maps
    prove no row in it can satisfy the expression.  Leaves on monotone
    maps bind to runs, and runs stay runs under AND (intersection) and
    under OR when they touch (union), so a range over a sorted column
    never materializes a per-chunk mask here.
    """
    if expr is None or n_chunks == 0:
        return None
    if isinstance(expr, (And, Or)):
        left = _candidate_mask(expr.left, zone_maps, n_chunks, pushed)
        right = _candidate_mask(expr.right, zone_maps, n_chunks, pushed)
        if isinstance(expr, And):
            if left is None:
                return right
            if right is None:
                return left
            if isinstance(left, _Run) and isinstance(right, _Run):
                first = max(left.first, right.first)
                return _Run(first, max(first, min(left.stop, right.stop)))
            return _as_mask(left, n_chunks) & _as_mask(right, n_chunks)
        if left is None or right is None:
            return None  # one side unprunable -> any chunk may match
        if isinstance(left, _Run) and isinstance(right, _Run):
            if left.first == left.stop:
                return right
            if right.first == right.stop:
                return left
            if max(left.first, right.first) <= min(left.stop, right.stop):
                return _Run(min(left.first, right.first),
                            max(left.stop, right.stop))
        return _as_mask(left, n_chunks) | _as_mask(right, n_chunks)
    if isinstance(expr, Compare):
        rng = expr.as_range()
        if rng is None:
            return None
        column, lo, hi = rng
        zm = zone_maps.get(column)
        if zm is None:
            return None
        run = zm.candidate_run(lo, hi)
        if run is not None:
            candidates: Union[_Run, np.ndarray] = _Run(*run)
            count = run[1] - run[0]
        else:
            chunks = zm.candidate_chunks(lo, hi)
            candidates = np.zeros(n_chunks, dtype=bool)
            candidates[chunks] = True
            count = int(chunks.size)
        pushed.append(PushedPredicate(
            column=column, lo=max(lo, 0), hi=hi,
            candidate_chunks=count, pruned_chunks=n_chunks - count,
        ))
        return candidates
    # NOT and anything else: no pruning information.
    return None


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
    candidate_mask: Optional[np.ndarray]  # per chunk; None = all candidates
    chunks_total: int
    chunks_candidate: int
    chunks_pruned: int
    morsels_pruned: int  # known at plan time from the candidate mask
    #: Indices of morsels with at least one candidate chunk (None =
    #: every morsel).  The executor only ever visits these, so a
    #: hard-pruning plan pays nothing per skipped morsel.
    active_morsels: Optional[np.ndarray]
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

    @property
    def predicted_replica_read_elements(self) -> Dict[str, int]:
        """Per needed column: elements the scan engine will decode
        (padding slots of a trailing partial chunk included, matching
        ``replica_read_elements`` accounting)."""
        return {
            name: 64 * self.chunks_candidate for name in self.needed_columns
        }

    def execute(self, pool=None, distribution: str = "dynamic",
                cancel=None, timeout_s=None):
        """Run this plan; see :func:`repro.query.executor.execute`.

        Plans execute themselves so callers (``Query.run``, the SQL
        server) stay agnostic of the plan's flavour — a distributed
        plan from :mod:`repro.cluster` honours the same signature.
        """
        from .executor import execute

        return execute(self, pool=pool, distribution=distribution,
                       cancel=cancel, timeout_s=timeout_s)

    def morsel_candidates(self, start: int, stop: int) -> np.ndarray:
        """Candidate chunk indices covering rows ``[start, stop)``."""
        first = start // bitpack.CHUNK_ELEMENTS
        end = -(-stop // bitpack.CHUNK_ELEMENTS)
        if self.candidate_mask is None:
            return np.arange(first, end, dtype=np.int64)
        local = np.nonzero(self.candidate_mask[first:end])[0]
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
        lines.append("  columns read (fused single pass):")
        for name in self.needed_columns:
            lines.append("    " + self.decisions[name].describe())
            lines.append(
                f"      will decode {self.chunks_candidate} chunks = "
                f"{64 * self.chunks_candidate} elements"
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
        if self.kernel.literals:
            lines.append("  literals: " + ", ".join(
                f"lits[{k}] = {value}"
                for k, value in enumerate(self.kernel.literals)
            ))
        return "\n".join(lines)


def plan_query(
    query: Query,
    morsel: Optional[int] = None,
    prune: str = "auto",
    pool=None,
    accesses_per_element: float = DEFAULT_ACCESSES_PER_ELEMENT,
    consult_selector: bool = True,
) -> PhysicalPlan:
    """Build the physical plan for ``query``.

    ``prune`` controls zone-map use: ``"auto"`` uses the table's cached
    zone maps (see :meth:`SmartTable.build_zone_map`), ``"build"``
    builds and caches any missing map for a sargable column first (one
    extra scan per column — worth it for repeated queries), ``"off"``
    disables pruning.

    ``morsel`` defaults to :data:`DEFAULT_MORSEL_ELEMENTS`, or one
    superchunk for a ``limit()`` query.
    """
    query.validate()
    if prune not in ("auto", "build", "off"):
        raise ValueError(
            f"prune must be 'auto', 'build', or 'off', got {prune!r}"
        )
    with trace("query.plan", prune=prune):
        plan = _plan_query(query, morsel, prune, pool,
                           accesses_per_element, consult_selector)
        reg = _obs_registry()
        reg.counter("query.plans").add(1)
        reg.counter("query.chunks_candidate").add(plan.chunks_candidate)
        reg.counter("query.chunks_pruned").add(plan.chunks_pruned)
        reg.counter("query.morsels_pruned_at_plan").add(plan.morsels_pruned)
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
    # projection.  Each is decoded exactly once per candidate-chunk run.
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


def _bind(query: Query, shape: _PlanShape, prune: str,
          ) -> Tuple[Optional[np.ndarray], List[PushedPredicate],
                     Optional[np.ndarray], int]:
    """The statement's literals against the zone maps: ``(per-chunk
    candidate mask, pushed predicates, active morsel indices, candidate
    chunk count)``, the first and third ``None`` when nothing can be
    pruned."""
    table = query.table
    n_rows = table.n_rows
    n_chunks = bitpack.chunks_for(n_rows)

    # Zone maps for sargable columns.
    zone_maps: Dict[str, ZoneMap] = {}
    if prune != "off" and query.predicate is not None and n_rows:
        sargable = _sargable_columns(query.predicate)
        for name in sorted(sargable):
            zm = table.zone_map(name)
            if zm is None and prune == "build":
                zm = table.build_zone_map(name)
            if zm is not None:
                zone_maps[name] = zm

    pushed: List[PushedPredicate] = []
    candidates = _candidate_mask(
        query.predicate if prune != "off" else None,
        zone_maps, n_chunks, pushed,
    )
    if candidates is None:
        return None, pushed, None, n_chunks

    # Morsels are uniform superchunk windows.
    per_morsel = shape.morsel_elements // bitpack.CHUNK_ELEMENTS
    if isinstance(candidates, _Run):
        # A run's morsels are a run too: plain arithmetic.
        first, stop = candidates
        active_morsels = (
            np.arange(first // per_morsel, -(-stop // per_morsel),
                      dtype=np.int64)
            if stop > first else np.empty(0, dtype=np.int64))
        return (_as_mask(candidates, n_chunks), pushed, active_morsels,
                stop - first)
    # Per-morsel candidacy is one padded reshape — no per-morsel Python.
    n_morsels = len(shape.morsels)
    padded = np.zeros(n_morsels * per_morsel, dtype=bool)
    padded[:n_chunks] = candidates
    has_candidates = padded.reshape(n_morsels, per_morsel).any(axis=1)
    active_morsels = np.nonzero(has_candidates)[0].astype(np.int64)
    return candidates, pushed, active_morsels, int(candidates.sum())


def _plan_query(
    query: Query,
    morsel: Optional[int],
    prune: str,
    pool,
    accesses_per_element: float,
    consult_selector: bool,
) -> PhysicalPlan:
    shape = _plan_shape(query, morsel)
    mask, pushed, active_morsels, chunks_candidate = _bind(
        query, shape, prune)

    table = query.table
    n_chunks = bitpack.chunks_for(table.n_rows)
    scan_elements = 64 * chunks_candidate

    selector_inputs = None
    if consult_selector:
        machine = pool.machine if pool is not None else None
        if machine is None:
            from ..core.allocate import default_machine

            machine = default_machine()
        selector_inputs = (machine, accesses_per_element)

    return PhysicalPlan(
        query=query,
        needed_columns=shape.needed_columns,
        morsel_elements=shape.morsel_elements,
        morsels=shape.morsels,
        candidate_mask=mask,
        chunks_total=n_chunks,
        chunks_candidate=chunks_candidate,
        chunks_pruned=n_chunks - chunks_candidate,
        morsels_pruned=(len(shape.morsels) - int(active_morsels.size)
                        if active_morsels is not None else 0),
        active_morsels=active_morsels,
        pushed=pushed,
        column_facts=shape.column_facts,
        selector_inputs=selector_inputs,
        est_instructions=sum(
            (blocked_scan_instructions(scan_elements, facts.bits)
             for facts in shape.column_facts.values()), 0.0),
        kernel=shape.kernel,
    )


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

