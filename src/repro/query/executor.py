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
zone-map pruning) in consecutive runs through the blocked decoder *once
per needed column*, evaluates the predicate span-at-a-time on the
decoded buffers, and folds aggregates/group partials/row output
directly off the mask — no operator-at-a-time materialization.

The full predicate is always re-evaluated on decoded spans; pruning
only decides *which chunks to decode*.  That keeps correctness
independent of the pruning analysis (a chunk the zone maps could not
rule out still filters exactly) and makes the decode accounting
precise: per needed column, executing a query adds exactly
``chunks_candidate`` to ``stats.chunk_unpacks`` and
``64 * chunks_candidate`` to the column's summed
``replica_read_elements`` — which is what ``explain()`` predicted.
(The one deliberate exception: a ``limit()`` row query stops claiming
morsels once the completed morsel prefix covers the row budget, so it
may decode *fewer* chunks — see :class:`_LimitTracker`.)

Determinism: morsel boundaries and per-morsel work are independent of
the claiming order, and partials merge in morsel order, so results —
including group dicts and row order — are bit-identical between
serial and threaded pools and between dynamic and static distribution.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core import bitpack
from ..core.zonemap import _chunk_runs
from ..obs.registry import registry as _obs_registry
from ..obs.trace import trace
from ..runtime.loops import parallel_for
from ..runtime.workers import ThreadContext, WorkerPool
from .codegen import CompiledKernel, compile_query
from .planner import PhysicalPlan
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
            distribution: str = "dynamic",
            cancel: Optional[threading.Event] = None,
            timeout_s: Optional[float] = None) -> QueryResult:
    """Run ``plan`` and return a :class:`QueryResult`.

    ``pool=None`` runs serially on socket 0 (no worker pool, no
    threads); with a pool, morsels are claimed dynamically (``batch=1``)
    or round-robin (``distribution="static"``) and each worker reads
    its socket-local replicas.  Results are bit-identical either way.

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
               distribution=distribution if pool is not None else "serial"):
        try:
            return _execute(plan, pool, distribution, cancel, timeout_s)
        except QueryTimeout:
            reg.counter("query.timeouts").add(1)
            raise
        except QueryCancelled:
            reg.counter("query.cancellations").add(1)
            raise


def _execute(plan: PhysicalPlan, pool: Optional[WorkerPool],
             distribution: str,
             cancel: Optional[threading.Event] = None,
             timeout_s: Optional[float] = None) -> QueryResult:
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
        distribution=distribution if pool is not None else "serial",
    )
    for name in plan.needed_columns:
        stats._bits[name] = table[name].bits

    n_morsels = len(plan.morsels)
    partials: List[Optional[MorselPartial]] = [None] * n_morsels
    max_chunks = plan.morsel_elements // bitpack.CHUNK_ELEMENTS
    n_rows = table.n_rows

    # Only morsels with candidate chunks are ever visited; fully pruned
    # morsels cost nothing at execution time (their partial stays None).
    work = (plan.active_morsels if plan.active_morsels is not None
            else range(n_morsels))
    limiter = (
        _LimitTracker(query.limit_rows, len(work))
        if is_rows and query.limit_rows is not None else None
    )
    limit_skipped = [False] * n_morsels

    # Kernels by the value widths they were compiled for: the plan's,
    # plus one per distinct width tuple a morsel pinned mid-migration.
    kernels: Dict[Tuple[int, ...], CompiledKernel] = {
        tuple(plan.kernel.column_bits[name]
              for name in plan.needed_columns): plan.kernel,
    }
    kernels_lock = threading.Lock()

    def kernel_for(bits: Tuple[int, ...]) -> CompiledKernel:
        with kernels_lock:
            kernel = kernels.get(bits)
            if kernel is None:
                kernel = kernels[bits] = compile_query(
                    query, plan.needed_columns,
                    dict(zip(plan.needed_columns, bits)),
                    plan.morsel_elements)
            return kernel

    def run_morsel(index: int, pos: int,
                   ctx: Optional[ThreadContext]) -> None:
        # Cooperative interruption point: nothing is pinned yet, so
        # raising here can never leak a generation pin.
        if cancel is not None and cancel.is_set():
            raise QueryCancelled("query cancelled")
        if deadline is not None and time.perf_counter() >= deadline:
            raise QueryTimeout(
                f"query exceeded its {timeout_s}s deadline "
                f"(checked at morsel boundaries)"
            )
        if limiter is not None and limiter.satisfied:
            limit_skipped[index] = True
            return
        start, stop = plan.morsels[index]
        part = MorselPartial(morsel=index)
        partials[index] = part
        candidates = plan.morsel_candidates(start, stop)
        if candidates.size == 0:
            if limiter is not None:
                limiter.record(pos, 0)
            return
        socket = ctx.socket if ctx is not None else 0
        # Pin each needed column's storage generation for the morsel:
        # a live migration swapping a column mid-query cannot tear a
        # morsel, and the next morsel reads the freshest generation.
        gens = {
            name: table[name].pin_generation()
            for name in plan.needed_columns
        }
        replicas = {
            name: gens[name].buffer_for_socket(socket)
            for name in plan.needed_columns
        }
        bufs = {
            name: np.empty(plan.morsel_elements, dtype=np.uint64)
            for name in plan.needed_columns
        }
        # The kernel's aggregate folds are specialized on the planned
        # *value* widths; a live migration may have swapped a column's
        # width (or codec — value_bits covers both) between plan and
        # this morsel's pin, so the morsel runs the kernel compiled for
        # the widths it pinned.
        bits = tuple(gens[name].value_bits for name in plan.needed_columns)
        kernel = kernel_for(bits)
        try:
            args: List[object] = []
            for name in plan.needed_columns:
                args += (table[name].decode_chunks, replicas[name], bufs[name])
            (part.rows_scanned, part.rows_matched, part.decoded_chunks,
             *output) = kernel.fn(
                list(_chunk_runs(candidates, max_chunks)),
                n_rows, kernel.literals, *args,
            )
        finally:
            for gen in gens.values():
                gen.unpin()
        if specs:
            part.agg, part.groups = output
        else:
            part.indices, part.values = output
        if limiter is not None:
            limiter.record(pos, part.rows_matched)

    if pool is None:
        for pos, index in enumerate(work):
            run_morsel(int(index), pos, None)
    else:
        def body(lo: int, hi: int, ctx: ThreadContext) -> None:
            for i in range(lo, hi):
                run_morsel(int(work[i]), i, ctx)

        parallel_for(len(work), body, pool, batch=1,
                     distribution=distribution)

    # -- merge in morsel order (deterministic regardless of claiming) --
    agg_total = _new_agg_partials(specs)
    group_total: Dict[int, List[object]] = {}
    idx_all: List[np.ndarray] = []
    val_all: Dict[str, List[np.ndarray]] = {name: [] for name in projection}
    for index, part in enumerate(partials):
        if part is None:
            # Fully pruned at plan time — or skipped because a limit()
            # budget was already satisfied by earlier morsels.
            if limit_skipped[index]:
                stats.morsels_skipped += 1
            else:
                stats.morsels_pruned += 1
            continue
        stats.rows_scanned += part.rows_scanned
        stats.rows_matched += part.rows_matched
        if part.decoded_chunks == 0:
            stats.morsels_pruned += 1
        else:
            stats.morsels_executed += 1
        for name in plan.needed_columns:
            stats.decoded_chunks[name] = (
                stats.decoded_chunks.get(name, 0) + part.decoded_chunks
            )
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
            stats.decoded_chunks.get(name, 0) * bitpack.CHUNK_ELEMENTS
        )
        stats.decoded_chunks.setdefault(name, 0)
    stats.wall_time_s = time.perf_counter() - t0

    # QueryStats registers into the observability registry: the same
    # totals the tests assert on become scrapeable and show up in the
    # enclosing query.execute span's counter deltas.  All of these are
    # deterministic (identical for serial and threaded pools).
    reg = _obs_registry()
    reg.counter("query.executions").add(1)
    reg.counter("query.morsels_executed").add(stats.morsels_executed)
    reg.counter("query.morsels_pruned").add(stats.morsels_pruned)
    reg.counter("query.morsels_skipped_limit").add(stats.morsels_skipped)
    reg.counter("query.rows_scanned").add(stats.rows_scanned)
    reg.counter("query.rows_matched").add(stats.rows_matched)
    for name in plan.needed_columns:
        reg.counter("query.decoded_chunks", column=name).add(
            stats.decoded_chunks.get(name, 0)
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
