"""Morsel-driven query execution on the worker pool.

The executor runs a :class:`~repro.query.planner.PhysicalPlan` the way
morsel-driven engines do: the row space is split into superchunk-
aligned *morsels* (so no chunk straddles two morsels), workers claim
morsels via Callisto's dynamic batch-claiming counter
(:func:`repro.runtime.loops.parallel_for` with ``batch=1``), and every
read inside a morsel goes through the socket-local replica of the
claiming worker (``array.get_replica(ctx.socket)``) — the paper's
``getReplica()``-at-batch-start discipline lifted to whole morsels.

Inside a morsel the pipeline is fully fused: the plan's generated
kernel (:mod:`repro.query.codegen`) decodes candidate chunks (after
zone-map pruning) in consecutive runs through the blocked decoder *at
most once per needed column*, evaluates the predicate span-at-a-time on the
decoded buffers, and folds aggregates/group partials/row output
directly off the mask — no operator-at-a-time materialization.

A morsel whose kernel has a native twin (:class:`~repro.query.codegen.
NativeKernel`) and whose pinned generations are all bit-packed runs the
twin instead when :mod:`repro.core.native` is loaded: the same runs,
counted through the same ``SmartArray.read_chunks`` accounting, decoded,
filtered and folded in one GIL-free call per run.
:func:`execute_reference` runs only the NumPy kernels — smartcheck's
twin.

The zone maps decide two things per morsel, and the decoded spans
decide the rest.  Pruning decides *which chunks to decode*; on every
morsel that still has a chunk the zone maps could not prove, the full
predicate is re-evaluated on the decoded spans, so a chunk they could
not rule out still filters exactly.  A *covered* morsel — every one of
its candidate chunks proven to match the whole predicate by its
min/max (:attr:`PhysicalPlan.covered_morsels`) — runs the plan's
predicate-free :attr:`~PhysicalPlan.covered_kernel` instead: the
predicate is not evaluated there, and the columns only it reads are
not decoded.  An ungrouped aggregate whose columns have chunk synopses
goes further: every covered chunk is answered from the zone maps'
per-chunk counts, sums, mins and maxs (:attr:`PhysicalPlan.synopsis`),
once per query on the calling thread, and only the other candidates
reach a kernel (:meth:`PhysicalPlan.morsel_runs`).  All of it comes
from the one map per column the plan read: every write to a column
replaces its map with one exact for the new contents, so a plan's
pruning, covering and synopses describe the contents it was planned
on, written or not, and nothing needs rebuilding.

The decode accounting is exact per column: executing a query adds
:attr:`PhysicalPlan.predicted_decoded_chunks` ``[name]`` — the
predicate kernel's chunks, plus those of covered morsels for a column
the covered kernel reads — to that column's ``stats.chunk_unpacks``, 64
times that to its summed ``replica_read_elements``, and the same to
``QueryStats.decoded_chunks`` and the ``query.decoded_chunks{column}``
counter — which is what ``explain()`` predicted; the chunks synopses
answered go to ``QueryStats.synopsis_chunks`` and
``query.synopsis_chunks{column}``.  (The one deliberate
exception: a ``limit()`` row query stops claiming morsels once the
completed morsel prefix covers the row budget, so it may decode
*fewer* chunks — see :class:`_LimitTracker`.)

Determinism: morsel boundaries and per-morsel work are independent of
the claiming order, and partials merge in morsel order, so results —
including group dicts and row order — are bit-identical between
serial and threaded pools.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core import bitpack, native
from ..core.zonemap import chunk_rows
from ..obs.registry import registry as _obs_registry
from ..obs.trace import trace
from ..runtime.loops import parallel_for
from ..runtime.workers import ThreadContext, WorkerPool
from .codegen import CompiledKernel, compile_query
from .planner import PhysicalPlan, _without_predicate
from .stats import MorselPartial, QueryResult, QueryStats


class QueryCancelled(RuntimeError):
    """Raised when a query's cancel event was set mid-execution.

    Cancellation is *cooperative*: the flag is checked at morsel
    boundaries (before any generation is pinned or chunk decoded), so a
    cancelled query never leaks a pinned generation and stops within
    one morsel's worth of work per worker.
    """


class QueryTimeout(QueryCancelled):
    """Raised when a query ran past its deadline (checked at morsel
    boundaries, like cancellation)."""


def _new_agg_partials(specs) -> List[object]:
    out: List[object] = []
    for spec in specs:
        if spec.kind in ("sum", "count"):
            out.append(0)
        elif spec.kind in ("min", "max"):
            out.append(None)
        else:  # mean: (sum, count)
            out.append((0, 0))
    return out


def _merge_agg(into: List[object], other: List[object], specs) -> None:
    for slot, spec in enumerate(specs):
        if spec.kind in ("sum", "count"):
            into[slot] += other[slot]
        elif spec.kind in ("min", "max"):
            if other[slot] is not None:
                into[slot] = (
                    other[slot] if into[slot] is None
                    else (min if spec.kind == "min" else max)(
                        into[slot], other[slot]
                    )
                )
        else:
            into[slot] = (
                into[slot][0] + other[slot][0],
                into[slot][1] + other[slot][1],
            )


def _synopsis_agg(plan: PhysicalPlan, specs, rows: int) -> List[object]:
    """Aggregate partials over the plan's synopsis chunks (``rows``
    rows), read from the zone maps' per-chunk statistics: ``rows`` for
    ``count``, exact chunk sums for ``sum``/``mean``, chunk mins/maxs
    for ``min``/``max``."""
    chunks = plan.synopsis
    out: List[object] = []
    for spec in specs:
        if spec.kind == "count":
            out.append(rows)
        elif spec.kind == "mean":
            out.append((plan.synopsis_maps[spec.column].synopsis(
                "sum", chunks), rows))
        else:
            out.append(plan.synopsis_maps[spec.column].synopsis(
                spec.kind, chunks))
    return out


def _finalize_agg(partials: List[object], specs) -> Dict[str, object]:
    out: Dict[str, object] = {}
    for slot, spec in enumerate(specs):
        if spec.kind == "mean":
            s, c = partials[slot]
            out[spec.name] = s / c if c else None
        else:
            out[spec.name] = partials[slot]
    return out


class _LimitTracker:
    """Early-exit bookkeeping for ``limit()`` row queries.

    Rows are returned in morsel order and truncated to the budget, so a
    morsel only contributes when some earlier morsel still needs rows.
    The tracker maintains the *completed prefix* of the work list: once
    every work position below ``prefix`` has finished and their matched
    rows cover the budget, the result is fully determined — any morsel
    not yet started can be skipped without decoding a single chunk.
    Skipping never changes the result (the skipped morsels' rows would
    have been truncated away), so serial and threaded runs stay
    bit-identical; threads that already started simply finish and their
    surplus rows are dropped at merge time as before.
    """

    def __init__(self, limit: int, n_work: int) -> None:
        self._limit = limit
        self._lock = threading.Lock()
        self._done = [False] * n_work
        self._matched = [0] * n_work
        self._prefix = 0
        self._prefix_rows = 0
        #: Read without the lock (a stale False only delays a skip).
        self.satisfied = limit == 0

    def record(self, pos: int, matched: int) -> None:
        """Work position ``pos`` finished with ``matched`` rows."""
        with self._lock:
            self._done[pos] = True
            self._matched[pos] = matched
            while self._prefix < len(self._done) and self._done[self._prefix]:
                self._prefix_rows += self._matched[self._prefix]
                self._prefix += 1
                if self._prefix_rows >= self._limit:
                    self.satisfied = True
                    return


def execute(plan: PhysicalPlan, pool: Optional[WorkerPool] = None,
            cancel: Optional[threading.Event] = None,
            timeout_s: Optional[float] = None) -> QueryResult:
    """Run ``plan`` and return a :class:`QueryResult`.

    ``pool=None`` runs serially on socket 0 (no worker pool, no
    threads); with a pool, workers claim morsels dynamically through
    :func:`~repro.runtime.loops.parallel_for` (``batch=1``) and each
    reads its socket-local replicas.  Results are bit-identical either
    way; ``stats.distribution`` says which ran (``"serial"`` or
    ``"dynamic"``).

    ``cancel`` (a :class:`threading.Event`) and ``timeout_s`` bound the
    run cooperatively: both are checked at every morsel boundary —
    before anything is pinned or decoded — and raise
    :class:`QueryCancelled` / :class:`QueryTimeout` on the calling
    thread (worker exceptions propagate through the pool).  Granularity
    is one morsel per worker; a query inside a single huge morsel is
    not interruptible mid-morsel.
    """
    reg = _obs_registry()
    with trace("query.execute",
               workers=pool.n_workers if pool is not None else 1,
               distribution="serial" if pool is None else "dynamic"):
        try:
            return _execute(plan, pool, cancel, timeout_s,
                            lower=native.LIB is not None)
        except QueryTimeout:
            reg.counter("query.timeouts").add(1)
            raise
        except QueryCancelled:
            reg.counter("query.cancellations").add(1)
            raise


def execute_reference(plan: PhysicalPlan,
                      pool: Optional[WorkerPool] = None) -> QueryResult:
    """Run ``plan`` on its NumPy kernels only, whether or not the native
    scans are loaded: the reference twin smartcheck diffs the native
    lowering against.  Same result, stats and accounting as
    :func:`execute`; no ``query.execute`` span."""
    return _execute(plan, pool, lower=False)


def _execute(plan: PhysicalPlan, pool: Optional[WorkerPool],
             cancel: Optional[threading.Event] = None,
             timeout_s: Optional[float] = None,
             lower: bool = False) -> QueryResult:
    """Run ``plan``; ``lower``: morsels whose kernel has a native twin
    and whose pinned generations are all bit-packed run it."""
    query = plan.query
    query.validate()
    table = plan.table
    specs = list(query.aggregates)
    group_key = query.group_key
    # Distinct projected columns: a repeated name is one output column.
    projection = tuple(dict.fromkeys(query.projection or ()))
    is_rows = not specs
    t0 = time.perf_counter()
    deadline = t0 + timeout_s if timeout_s is not None else None

    stats = QueryStats(
        morsels_total=len(plan.morsels),
        chunks_total=plan.chunks_total,
        chunks_candidate=plan.chunks_candidate,
        est_instructions=plan.est_instructions,
        n_workers=pool.n_workers if pool is not None else 1,
        distribution="serial" if pool is None else "dynamic",
    )
    for name in plan.needed_columns:
        stats._bits[name] = table[name].bits
        stats.decoded_chunks[name] = 0
        stats.synopsis_chunks[name] = plan.synopsis_chunks

    n_morsels = len(plan.morsels)
    partials: List[Optional[MorselPartial]] = [None] * n_morsels
    n_rows = table.n_rows

    # Only morsels with chunks to decode are ever visited; fully pruned
    # morsels, and those the synopses answer whole, cost nothing at
    # execution time (their partial stays None).
    work = (plan.work_morsels if plan.work_morsels is not None
            else range(n_morsels))
    limiter = (
        _LimitTracker(query.limit_rows, len(work))
        if is_rows and query.limit_rows is not None else None
    )
    limit_skipped = [False] * n_morsels

    # Kernels by (covered, value widths they were compiled for): the
    # plan's two, plus one per distinct width tuple a morsel pinned
    # mid-migration.
    bare = plan.covered_kernel
    kernels: Dict[Tuple[bool, Tuple[int, ...]], CompiledKernel] = {
        (covered, tuple(kernel.column_bits[name] for name in kernel.columns)):
            kernel
        for covered, kernel in ((False, plan.kernel), (True, bare))
        if kernel is not None
    }
    kernels_lock = threading.Lock()

    def kernel_for(covered: bool, bits: Tuple[int, ...]) -> CompiledKernel:
        with kernels_lock:
            kernel = kernels.get((covered, bits))
            if kernel is None:
                planned = bare if covered else plan.kernel
                kernel = kernels[covered, bits] = compile_query(
                    _without_predicate(query) if covered else query,
                    planned.columns, dict(zip(planned.columns, bits)),
                    plan.morsel_elements)
            return kernel

    # A synopsis plan's covered morsels are answered without a kernel.
    covered_morsels = frozenset(plan.covered_morsels.tolist())
    kernel_covered = covered_morsels if bare is not None else frozenset()

    def check_interrupt() -> None:
        # Cooperative interruption point: nothing is pinned yet, so
        # raising here can never leak a generation pin.
        if cancel is not None and cancel.is_set():
            raise QueryCancelled("query cancelled")
        if deadline is not None and time.perf_counter() >= deadline:
            raise QueryTimeout(
                f"query exceeded its {timeout_s}s deadline "
                f"(checked at morsel boundaries)"
            )

    def run_morsel(index: int, pos: int,
                   ctx: Optional[ThreadContext]) -> None:
        check_interrupt()
        if limiter is not None and limiter.satisfied:
            limit_skipped[index] = True
            return
        part = MorselPartial(morsel=index, covered=index in kernel_covered)
        partials[index] = part
        runs = plan.morsel_runs(index)
        if not runs:
            if limiter is not None:
                limiter.record(pos, 0)
            return
        socket = ctx.socket if ctx is not None else 0
        columns = (bare if part.covered else plan.kernel).columns
        # Pin each decoded column's storage generation for the morsel:
        # a live migration swapping a column mid-query cannot tear a
        # morsel, and the next morsel reads the freshest generation.
        gens = [table[name].pin_generation() for name in columns]
        # The kernel's aggregate folds are specialized on the planned
        # *value* widths; a live migration may have swapped a column's
        # width (or codec — value_bits covers both) between plan and
        # this morsel's pin, so the morsel runs the kernel compiled for
        # the widths it pinned.
        kernel = kernel_for(part.covered,
                            tuple(gen.value_bits for gen in gens))
        # The native twin reads the packed words in place: only when
        # every generation the morsel pinned is bit-packed.
        part.native = lower and kernel.native is not None and all(
            gen.codec == "bitpack" for gen in gens)
        try:
            args: List[object] = []
            if part.native:
                for name, gen in zip(columns, gens):
                    args += (table[name].read_chunks,
                             gen.buffer_for_socket(socket))
                (part.rows_scanned, part.rows_matched, part.decoded_chunks,
                 *output) = kernel.native(runs, n_rows, *args)
            else:
                for name, gen in zip(columns, gens):
                    args += (table[name].decode_chunks,
                             gen.buffer_for_socket(socket),
                             np.empty(plan.morsel_elements,
                                      dtype=np.uint64))
                (part.rows_scanned, part.rows_matched, part.decoded_chunks,
                 *output) = kernel.fn(runs, n_rows, kernel.literals, *args)
        finally:
            for gen in gens:
                gen.unpin()
        if specs:
            part.agg, part.groups = output
        else:
            part.indices, part.values = output
        if limiter is not None:
            limiter.record(pos, part.rows_matched)

    # Also before the synopses answer anything: a plan they answer
    # whole visits no morsel at all.
    check_interrupt()
    if pool is None:
        for pos, index in enumerate(work):
            run_morsel(int(index), pos, None)
    else:
        def body(lo: int, hi: int, ctx: ThreadContext) -> None:
            for i in range(lo, hi):
                run_morsel(int(work[i]), i, ctx)

        parallel_for(len(work), body, pool, batch=1)

    # -- merge in morsel order (deterministic regardless of claiming) --
    agg_total = _new_agg_partials(specs)
    group_total: Dict[int, List[object]] = {}
    idx_all: List[np.ndarray] = []
    val_all: Dict[str, List[np.ndarray]] = {name: [] for name in projection}
    if plan.synopsis_chunks:
        rows = chunk_rows(n_rows, plan.synopsis)
        stats.rows_scanned += rows
        stats.rows_matched += rows
        _merge_agg(agg_total, _synopsis_agg(plan, specs, rows), specs)
    for index, part in enumerate(partials):
        if part is None:
            # Fully pruned at plan time, answered by the synopses — or
            # skipped because a limit() budget was already satisfied by
            # earlier morsels.
            if limit_skipped[index]:
                stats.morsels_skipped += 1
            elif index in covered_morsels:
                stats.morsels_covered += 1
            else:
                stats.morsels_pruned += 1
            continue
        stats.rows_scanned += part.rows_scanned
        stats.rows_matched += part.rows_matched
        if part.decoded_chunks == 0:
            stats.morsels_pruned += 1
        else:
            stats.morsels_executed += 1
            stats.morsels_covered += part.covered
            stats.morsels_native += part.native
        for name in plan.decoded_columns(part.covered):
            stats.decoded_chunks[name] += part.decoded_chunks
        if specs:
            if group_key is not None and part.groups:
                for key in sorted(part.groups):
                    into = group_total.get(key)
                    if into is None:
                        into = group_total[key] = _new_agg_partials(specs)
                    _merge_agg(into, part.groups[key], specs)
            elif part.agg:
                _merge_agg(agg_total, part.agg, specs)
        elif part.indices is not None:
            idx_all.append(part.indices)
            for name in projection:
                val_all[name].append(part.values[name])
    for name in plan.needed_columns:
        stats.decoded_elements[name] = (
            stats.decoded_chunks[name] * bitpack.CHUNK_ELEMENTS
        )
    stats.wall_time_s = time.perf_counter() - t0

    # QueryStats registers into the observability registry: the same
    # totals the tests assert on become scrapeable and show up in the
    # enclosing query.execute span's counter deltas.  All of these are
    # deterministic (identical for serial and threaded pools).
    reg = _obs_registry()
    reg.counter("query.executions").add(1)
    reg.counter("query.morsels_executed").add(stats.morsels_executed)
    reg.counter("query.native_morsels").add(stats.morsels_native)
    reg.counter("query.morsels_covered").add(stats.morsels_covered)
    reg.counter("query.morsels_pruned").add(stats.morsels_pruned)
    reg.counter("query.morsels_skipped_limit").add(stats.morsels_skipped)
    reg.counter("query.rows_scanned").add(stats.rows_scanned)
    reg.counter("query.rows_matched").add(stats.rows_matched)
    for name in plan.needed_columns:
        reg.counter("query.decoded_chunks", column=name).add(
            stats.decoded_chunks[name]
        )
        reg.counter("query.synopsis_chunks", column=name).add(
            stats.synopsis_chunks[name]
        )
    reg.histogram("query.wall_time_s").observe(stats.wall_time_s)

    if specs:
        if group_key is not None:
            groups = {
                key: _finalize_agg(group_total[key], specs)
                for key in sorted(group_total)
            }
            return QueryResult("groups", stats, plan, groups=groups)
        return QueryResult(
            "aggregate", stats, plan,
            aggregates=_finalize_agg(agg_total, specs),
        )
    rows = (np.concatenate(idx_all) if idx_all
            else np.empty(0, dtype=np.int64))
    columns = {
        name: (np.concatenate(pieces) if pieces
               else np.empty(0, dtype=np.uint64))
        for name, pieces in val_all.items()
    }
    if query.limit_rows is not None and rows.size > query.limit_rows:
        rows = rows[:query.limit_rows]
        columns = {name: vals[:query.limit_rows]
                   for name, vals in columns.items()}
    return QueryResult("rows", stats, plan, rows=rows, columns=columns)
