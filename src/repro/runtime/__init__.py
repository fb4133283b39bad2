"""Callisto-RTS analogue: parallel loops with dynamic batch distribution.

The paper builds smart arrays inside Callisto-RTS (section 2.2), whose
role here is: pinned workers across all sockets, dynamic distribution of
loop-iteration batches, and per-batch partial reductions.
"""

from .atomics import AtomicCounter
from .loops import (
    DEFAULT_BATCH,
    LoopStats,
    default_pool,
    parallel_for,
    parallel_reduce,
    parallel_sum,
    parallel_sum_bulk,
)
from .workers import ThreadContext, WorkerPool, build_contexts

__all__ = [
    "AtomicCounter",
    "DEFAULT_BATCH",
    "LoopStats",
    "ThreadContext",
    "WorkerPool",
    "build_contexts",
    "default_pool",
    "parallel_for",
    "parallel_reduce",
    "parallel_sum",
    "parallel_sum_bulk",
]
