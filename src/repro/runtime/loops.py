"""Parallel loops with dynamic batch distribution (Callisto-RTS's core).

Callisto-RTS provides "parallel loops with dynamic distribution of loop
iterations between worker threads" (section 2.2): workers repeatedly
claim the next batch of iterations from a shared counter and run the
loop body over it.  The paper's aggregation expresses per-batch work as
"a range of array indices" whose iterator is constructed at the batch's
first element (section 4.3).

:func:`parallel_for` reproduces exactly that protocol.  On top of it:

* :func:`parallel_reduce` — per-worker partial results combined at the
  end (each batch folds into a thread-local accumulator; the paper's
  "local sum" + one atomic update per batch);
* :func:`parallel_sum` — the paper's aggregation loop over one or more
  smart arrays, via per-batch iterators;
* :func:`parallel_sum_bulk` — the vectorized equivalent used for large
  functional runs: each batch pins every array's storage generation,
  reads the socket-local replica and decodes its chunks in one call.

Every other pooled scan (count, select, min/max, filtered aggregates)
is a query run with ``pool=`` on the morsel executor
(:mod:`repro.query.executor`), which claims morsels through
:func:`parallel_for` too.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Union

from ..core import bitpack
from ..core.iterators import SmartArrayIterator
from ..core.map_api import check_superchunk
from ..core.smart_array import SmartArray
from ..obs.registry import registry as _obs_registry
from ..obs.trace import trace
from .atomics import AtomicCounter
from .workers import ThreadContext, WorkerPool

#: Default loop-batch size, in iterations.  Callisto uses fine-grained
#: batches to keep distribution scalable; 4096 keeps per-batch Python
#: overhead tolerable while still exercising multi-batch dynamics.
DEFAULT_BATCH = 4096


@dataclass
class LoopStats:
    """Per-run distribution statistics (observable scheduling behaviour)."""

    batches_per_worker: List[int] = field(default_factory=list)

    @property
    def total_batches(self) -> int:
        return sum(self.batches_per_worker)


def parallel_for(
    n: int,
    body: Callable[[int, int, ThreadContext], None],
    pool: WorkerPool,
    batch: int = DEFAULT_BATCH,
    stats: Optional[LoopStats] = None,
) -> None:
    """Run ``body(start, end, ctx)`` over ``[0, n)`` in batches.

    Callisto's work-distribution fast path: each worker loops, claiming
    the next batch index with an atomic fetch-add and running the body
    over ``[start, min(start+batch, n))``, until the range is
    exhausted; batches are claimed exactly once.  In a ``serial`` pool
    the first worker drains the whole counter.
    """
    if n < 0:
        raise ValueError(f"iteration count must be >= 0, got {n}")
    if batch < 1:
        raise ValueError(f"batch size must be >= 1, got {batch}")
    if n == 0:
        return
    counter = AtomicCounter(0)
    if stats is not None:
        stats.batches_per_worker = [0] * pool.n_workers
    worker_index = {id(ctx): i for i, ctx in enumerate(pool.contexts)}
    # One registry counter per loop run (looked up once, bumped per
    # executed batch): every run executes exactly ceil(n / batch)
    # bodies, so the claim totals match between serial and threaded
    # pools — the counter-parity property the tests pin down.
    claims = _obs_registry().counter("runtime.batches_claimed")

    def work(ctx: ThreadContext) -> None:
        while True:
            start = counter.fetch_add(batch)
            if start >= n:
                return
            end = min(start + batch, n)
            body(start, end, ctx)
            claims.add(1)
            if stats is not None:
                stats.batches_per_worker[worker_index[id(ctx)]] += 1

    pool.run(work)


def parallel_reduce(
    n: int,
    batch_fn: Callable[[int, int, ThreadContext], object],
    combine: Callable[[object, object], object],
    initial,
    pool: WorkerPool,
    batch: int = DEFAULT_BATCH,
):
    """Fold ``batch_fn`` results over all batches.

    ``batch_fn(start, end, ctx)`` returns a batch-local value; values
    are folded into the global accumulator with ``combine`` under a
    lock, one update per batch — the paper's "atomically incrementing a
    global sum variable at the end of each loop batch".
    """
    lock = threading.Lock()
    box = [initial]

    def body(start: int, end: int, ctx: ThreadContext) -> None:
        local = batch_fn(start, end, ctx)
        with lock:
            box[0] = combine(box[0], local)

    parallel_for(n, body, pool, batch=batch)
    return box[0]


def _as_arrays(
    arrays: Union[Sequence[SmartArray], SmartArray], what: str
) -> List[SmartArray]:
    if isinstance(arrays, SmartArray):
        arrays = [arrays]
    arrays = list(arrays)
    if not arrays:
        raise ValueError(f"{what} needs at least one array")
    n = arrays[0].length
    for a in arrays:
        if a.length != n:
            raise ValueError("all arrays must have the same length")
    return arrays


def default_pool(n_workers: int = 8, mode: str = "threads") -> WorkerPool:
    """A convenience pool on the process-default machine.

    Real Callisto uses every hardware thread context; for the Python
    functional path a handful of workers is enough to exercise the
    scheduling while keeping thread overhead low.
    """
    from ..core.allocate import default_machine

    return WorkerPool(default_machine(), n_workers=n_workers, mode=mode)


def parallel_sum(
    arrays: Union[Sequence[SmartArray], SmartArray],
    pool: Optional[WorkerPool] = None,
    batch: int = DEFAULT_BATCH,
) -> int:
    """The paper's aggregation: ``sum += a1[i] + a2[i]`` (section 5.1).

    Accepts one array or several of equal length.  Each batch allocates
    iterators at the batch's first index (Function 4's pattern) and
    walks them with ``get()``/``next()``; per-batch sums are combined
    atomically.  Exact integer arithmetic — Python ints don't overflow,
    so the test suite can check sums exactly.
    """
    pool = pool or default_pool()
    arrays = _as_arrays(arrays, "parallel_sum")
    n = arrays[0].length

    def batch_fn(start: int, end: int, ctx: ThreadContext) -> int:
        iterators = [
            SmartArrayIterator.allocate(a, start, socket=ctx.socket)
            for a in arrays
        ]
        local = 0
        for _ in range(start, end):
            for it in iterators:
                local += it.get()
                it.next()
        return local

    return parallel_reduce(n, batch_fn, lambda a, b: a + b, 0, pool, batch=batch)


def parallel_sum_bulk(
    arrays: Union[Sequence[SmartArray], SmartArray],
    pool: Optional[WorkerPool] = None,
    batch: int = 1 << 16,
) -> int:
    """Vectorized aggregation: each batch is one blocked chunk-range
    decode per array.

    Semantically identical to :func:`parallel_sum` (tests assert this),
    but each batch decodes with the vectorized kernels, so realistic
    array sizes run at NumPy speed.  ``batch`` must be a positive
    multiple of 64, so every batch is chunk-aligned.

    Each batch pins every array's storage generation and decodes from
    the pinned generation's socket-local replica (the paper's
    ``getReplica()`` at batch start, section 4.3): a live migration
    swapping an array mid-sum cannot tear a batch, and the next batch
    reads the freshest generation.
    """
    pool = pool or default_pool()
    try:
        batch = check_superchunk(batch)
    except ValueError:
        raise ValueError(
            f"batch must be a positive multiple of 64, got {batch}"
        ) from None
    arrays = _as_arrays(arrays, "parallel_sum_bulk")
    n = arrays[0].length

    def batch_fn(start: int, end: int, ctx: ThreadContext) -> int:
        local = 0
        first_chunk = start // bitpack.CHUNK_ELEMENTS
        end_chunk = bitpack.chunks_for(end)
        base = first_chunk * bitpack.CHUNK_ELEMENTS
        for a in arrays:
            gen = a.pin_generation()
            try:
                decoded = a.decode_chunks(
                    first_chunk, end_chunk - first_chunk,
                    replica=gen.buffer_for_socket(ctx.socket),
                )
            finally:
                gen.unpin()
            local += bitpack.exact_sum(decoded[start - base:end - base])
        return local

    with trace("scan.parallel_sum", n=n, batch=batch,
               workers=pool.n_workers):
        return parallel_reduce(n, batch_fn, lambda a, b: a + b, 0, pool,
                               batch=batch)
