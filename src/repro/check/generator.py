"""Seeded operation-sequence generator for the smartcheck harness.

A *case* is one smart array configuration — length, bit width, NUMA
placement, superchunk size, worker-pool mode — plus a sequence of
operations to run against it.  Cases sweep the configuration grid
deterministically (case ``i`` takes placement ``i % 4``, bit width
``(i // 4) % 8``, ...), so any budget of at least 32 cases covers the
full placements x bit-widths cross product, while lengths, values, and
op parameters come from a seeded :class:`numpy.random.Generator`.

Everything is a pure function of ``(seed, case_index)``: replaying a
seed regenerates byte-identical cases, which is what makes shrunk
failures reproducible.  Op arguments are plain Python ints — bulk
values are carried as a value-seed and regenerated on demand by
:func:`gen_values`, never stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from .oracle import U64_MAX

#: The configuration grid.  Placements cover all four paper modes; bit
#: widths include both uncompressed specializations (32, 64), the
#: 1-bit extreme, and the 63/64 boundary widths.
PLACEMENTS: Tuple[str, ...] = ("default", "pinned", "interleaved",
                               "replicated")
BIT_WIDTHS: Tuple[int, ...] = (1, 7, 13, 32, 33, 40, 63, 64)
SUPERCHUNKS: Tuple[int, ...] = (64, 256, 4096)
POOL_MODES: Tuple[str, ...] = ("serial", "threads")


@dataclass(frozen=True)
class ArraySpec:
    """One point of the configuration grid."""

    length: int
    bits: int
    placement: str
    superchunk: int
    pool_mode: str

    def describe(self) -> str:
        return (
            f"length={self.length} bits={self.bits} "
            f"placement={self.placement} superchunk={self.superchunk} "
            f"pool={self.pool_mode}"
        )


@dataclass(frozen=True)
class Op:
    """One generated operation: a name plus plain-int arguments."""

    name: str
    args: Tuple[int, ...] = ()

    def __repr__(self) -> str:
        return f"Op({self.name!r}, {self.args!r})"


#: Generation profiles: ``mixed`` sweeps every op (query ops included
#: at modest weight); ``query`` is write-light and query-heavy, for the
#: dedicated CI job exercising the query engine's differential checks;
#: ``obs`` draws from the mixed table with parallel and query ops
#: up-weighted and runs every case under tracing, cross-checking the
#: registry and per-span counter deltas against the oracle accounting;
#: ``live`` interleaves scans, writes, and queries with randomly
#: injected online migrations (placement and bit-width changes through
#: :mod:`repro.live`), checking bit-identical results and that no op
#: ever observes a half-migrated generation; ``sql`` renders random
#: SQL statements, compiles them through :mod:`repro.sql`, and checks
#: the bound plan and its results/accounting are identical to the
#: directly-built fluent-``Query`` twin (plus malformed statements
#: that must fail with positioned errors, never tracebacks); ``codec``
#: fills the array once, then interleaves scans, point reads, queries,
#: and zone-map probes with online *codec* migrations (bit-pack <->
#: dict/rle/delta through :mod:`repro.live`), checking every operator's
#: result against the oracle in whatever layout the array currently
#: has, that encoded-domain fast paths decode exactly zero chunks, and
#: that a migration stepped mid-scan never perturbs results; ``cluster``
#: partitions the case's table across 1/2/4 simulated nodes (hash and
#: range sharding, hot-column replicas on/off, swept by case index via
#: :func:`cluster_grid`) and runs every query op distributed, checking
#: results bit-identical to both the oracle and the single-node gather
#: twin, plus *exact* ``cluster.bytes_shipped`` / ``cluster.rpcs``
#: accounting predicted from oracle-side wire payloads — including
#: while a :mod:`repro.live` migration steps one shard's column
#: mid-query.
PROFILES: Tuple[str, ...] = ("mixed", "query", "obs", "live", "sql",
                             "codec", "cluster")


@dataclass(frozen=True)
class Case:
    """A spec plus its op sequence; ``index`` replays it from ``seed``."""

    seed: int
    index: int
    spec: ArraySpec
    ops: Tuple[Op, ...]
    profile: str = "mixed"

    def describe(self) -> str:
        lines = [f"case {self.index} (seed {self.seed}, "
                 f"profile {self.profile}): {self.spec.describe()}"]
        lines += [f"  [{i}] {op!r}" for i, op in enumerate(self.ops)]
        return "\n".join(lines)


#: The cluster profile's own grid axes, swept by case index (the same
#: trick the spec grid uses) so any budget of at least 12 cases covers
#: nodes x sharding-mode x replicas.
CLUSTER_NODES: Tuple[int, ...] = (1, 2, 4)
CLUSTER_MODES: Tuple[str, ...] = ("hash", "range")


def cluster_grid(index: int) -> Tuple[int, str, bool]:
    """``(n_nodes, mode, replicate)`` for case ``index``.

    Shared by the runner and the tests so both sides agree on which
    cluster shape a given case exercises.
    """
    n_nodes = CLUSTER_NODES[index % len(CLUSTER_NODES)]
    mode = CLUSTER_MODES[(index // len(CLUSTER_NODES)) % len(CLUSTER_MODES)]
    replicate = bool(
        (index // (len(CLUSTER_NODES) * len(CLUSTER_MODES))) % 2
    )
    return n_nodes, mode, replicate


def companion_bits(bits: int) -> int:
    """Bit width of the value column query ops pair with the main
    array (deterministic offset through the width grid, so key and
    value widths differ in almost every case)."""
    if bits in BIT_WIDTHS:
        i = BIT_WIDTHS.index(bits)
        return BIT_WIDTHS[(i + 3) % len(BIT_WIDTHS)]
    return bits


#: Value-column widths that straddle the chunk-sum cutoff: a zone map
#: keeps 64-element chunk sums for values up to 58 bits wide, none for
#: 59.  Half the cases whose companion width would be 63 or 64 bits
#: (no sums either way) take 59 or 58 instead (:func:`companion_width`);
#: 59, like 63, packs lanes that spill into a ninth byte.
SUM_CUTOFF_WIDTHS = {63: 59, 64: 58}


def companion_width(seed: int, index: int, bits: int) -> int:
    """The value column's width in case ``index`` of ``seed``:
    :func:`companion_bits`, or its :data:`SUM_CUTOFF_WIDTHS` twin for
    half the cases that have one (a coin of its own, so the case's op
    stream is drawn exactly as before)."""
    width = companion_bits(bits)
    if width in SUM_CUTOFF_WIDTHS and int(
            np.random.default_rng([seed, index, 0x58]).integers(0, 2)):
        return SUM_CUTOFF_WIDTHS[width]
    return width


def gen_saturated(vseed: int, n: int, bits: int) -> np.ndarray:
    """Values at the top of the ``bits``-wide domain (pure): each chunk
    either holds ``2**bits - 1`` in every row — the largest sum a chunk
    can have — or uniform values over the domain."""
    rng = np.random.default_rng(vseed)
    dom_max = (1 << bits) - 1
    vals = rng.integers(0, dom_max, size=n, dtype=np.uint64, endpoint=True)
    full = rng.integers(0, 2, size=-(-n // 64)).astype(bool)
    vals[np.repeat(full, 64)[:n]] = np.uint64(dom_max)
    return vals


def gen_values(vseed: int, n: int, bits: int) -> np.ndarray:
    """Regenerate the bulk values identified by ``vseed`` (pure)."""
    rng = np.random.default_rng(vseed)
    dom_max = (1 << bits) - 1
    mode = int(rng.integers(0, 3))
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    if mode == 0:  # uniform over the full domain
        vals = rng.integers(0, dom_max, size=n, dtype=np.uint64,
                            endpoint=True)
    elif mode == 1:  # clustered ramp: makes zone maps selective
        steps = rng.integers(0, 3, size=n, dtype=np.uint64)
        vals = np.minimum(np.cumsum(steps, dtype=np.uint64),
                          np.uint64(dom_max))
    else:  # few distinct values: makes count_equal hit
        pool = rng.integers(0, dom_max, size=min(4, n), dtype=np.uint64,
                            endpoint=True)
        vals = rng.choice(pool, size=n)
    return vals.astype(np.uint64)


def _gen_bound(rng: np.random.Generator, bits: int) -> int:
    """A predicate bound: boundary values of the data domain and of the
    uint64 storage domain, or a random in-domain value."""
    dom = 1 << bits
    boundary = (0, 1, dom - 1, dom, dom + 1, 1 << 63,
                U64_MAX, U64_MAX + 1, U64_MAX + 17, -3)
    t = int(rng.integers(0, len(boundary) + 3))
    if t < len(boundary):
        return int(boundary[t])
    return int(rng.integers(0, dom - 1, dtype=np.uint64, endpoint=True))


#: Widest in-data range :func:`_gen_bounds` draws: three chunks of a
#: ramp, whose values grow by one per element on average.
IN_DATA_SPAN = 192


def _gen_bounds(rng: np.random.Generator, bits: int,
                length: int) -> Tuple[int, int]:
    """A range predicate's ``(lo, hi)``: half the time a range of at most
    :data:`IN_DATA_SPAN` starting inside a ramp's data (:func:`gen_values`
    mode 1 averages one per element, so its values span about
    ``[0, length]``), so its edges fall inside chunks and a zone map
    covers the chunks between them; else two :func:`_gen_bound` draws."""
    if rng.integers(0, 2):
        lo = int(rng.integers(0, length, endpoint=True))
        return lo, lo + int(rng.integers(0, IN_DATA_SPAN, endpoint=True))
    return _gen_bound(rng, bits), _gen_bound(rng, bits)


def _gen_index(rng: np.random.Generator, length: int) -> int:
    """An element index, occasionally in negative (from-the-end) form."""
    i = int(rng.integers(0, length))
    if rng.integers(0, 4) == 0:
        return i - length
    return i


def _gen_slice(rng: np.random.Generator,
               length: int) -> Tuple[int, int, int]:
    start = int(rng.integers(-length - 1, length + 2)) if length else 0
    stop = int(rng.integers(-length - 1, length + 2)) if length else 0
    step = int(rng.choice([1, 1, 2, 3, -1, -2]))
    return start, stop, step


def _gen_range(rng: np.random.Generator, length: int) -> Tuple[int, int]:
    """A valid [start, stop) scan range with 0 <= start <= stop <= length."""
    a = int(rng.integers(0, length + 1))
    b = int(rng.integers(0, length + 1))
    return min(a, b), max(a, b)


def _gen_value(rng: np.random.Generator, bits: int) -> int:
    return int(rng.integers(0, (1 << bits) - 1, dtype=np.uint64,
                            endpoint=True))


#: Query-engine ops: differential checks of the morsel executor against
#: the oracle, over a two-column table (the case's array as the key
#: column plus a deterministically derived value column).
_QUERY_OPS = (
    ("query_filter_sum", 3, False),
    ("query_filter_count", 2, False),
    ("query_and_count", 2, False),
    ("query_or_select", 2, False),
    ("query_group_sum", 2, False),
    ("query_filter_minmax", 2, False),
)

#: (name, weight, needs_nonempty).  Weights bias toward the scan
#: operators the harness exists to cross-check.
_OP_TABLE = (
    ("fill", 2, False),
    ("init", 2, True),
    ("init_locked", 1, True),
    ("setitem", 2, True),
    ("setitem_slice", 2, False),
    ("setitem_slice_scalar", 1, False),
    ("scatter", 2, True),
    ("get", 2, True),
    ("getitem_slice", 2, False),
    ("gather", 2, True),
    ("to_numpy", 1, False),
    ("decode_chunks", 2, True),
    ("sum_range", 2, False),
    ("count_in_range", 4, False),
    ("select_in_range", 4, False),
    ("count_equal", 2, False),
    ("min_max", 2, True),
    ("iter_take", 3, False),
    ("take_then_get", 2, True),
    ("iter_walk", 2, False),
    ("zonemap_candidates", 1, True),
    ("parallel_sum", 1, True),
    ("parallel_count", 2, True),
    ("parallel_select", 2, True),
    ("parallel_min_max", 1, True),
) + tuple((name, 1, nonempty) for name, _, nonempty in _QUERY_OPS)

#: The query profile keeps writes (so plans read zone maps the writes
#: replaced) but spends most of the budget on query ops.
_QUERY_OP_TABLE = (
    ("fill", 3, False),
    ("setitem", 1, True),
    ("scatter", 1, True),
) + _QUERY_OPS

#: The obs profile leans on the ops whose counters move from worker
#: threads (``parallel_sum_bulk`` and the pooled one-column queries
#: behind ``parallel_*``, the ``query_*`` executor) — the lost-update
#: surface the observability invariant exists to catch.
_OBS_OP_TABLE = tuple(
    (name, weight * (3 if name.startswith(("parallel_", "query_")) else 1),
     nonempty)
    for name, weight, nonempty in _OP_TABLE
)

#: Per-step chunk budgets for generated migrations: 1 maximizes the
#: number of intermediate states readers can race with; 64 finishes
#: most arrays in a couple of steps (the swap-heavy path).
_MIGRATE_BUDGETS = (1, 4, 64)

#: Online-migration ops (live profile only).  ``migrate`` steps a
#: migration to completion with a full storage check between every
#: step; ``migrate_during_scan`` races scans on the main thread against
#: a stepping thread; ``migrate_with_writes`` interleaves point writes
#: (dual-write coverage); ``migrate_abort`` narrows below the data's
#: width and expects a clean abort with no ledger leak.
_LIVE_MIGRATE_OPS = (
    ("migrate", 4, False),
    ("migrate_during_scan", 3, False),
    ("migrate_with_writes", 3, True),
    ("migrate_abort", 1, False),
)

#: The live profile keeps a lean read/scan/write subset (every op the
#: migration machinery can disturb) and injects migrations between and
#: *during* them.
_LIVE_OP_TABLE = (
    ("fill", 2, False),
    ("setitem", 2, True),
    ("scatter", 1, True),
    ("get", 2, True),
    ("to_numpy", 2, False),
    ("decode_chunks", 2, True),
    ("sum_range", 3, False),
    ("count_in_range", 3, False),
    ("select_in_range", 2, False),
    ("min_max", 2, True),
    ("iter_take", 2, False),
    ("parallel_sum", 1, True),
    ("parallel_count", 2, True),
    ("query_filter_count", 1, False),
    ("query_key_sum", 1, False),
) + _LIVE_MIGRATE_OPS

#: SQL-frontend twins of the query ops: identical argument shapes plus
#: a trailing *style* int that fuzzes the SQL surface (keyword case,
#: whitespace, ``=`` vs ``==``, trailing semicolon) without changing
#: the statement's meaning.  The runner renders the SQL text, compiles
#: it through :mod:`repro.sql`, asserts the bound logical plan matches
#: the fluent twin's, then reuses the full query differential checks
#: (oracle results, candidate chunks, exact decode accounting).  ``sql_error`` draws from a malformed-statement table
#: and expects a positioned :class:`~repro.sql.SqlError`.
_SQL_OPS = (
    ("sql_filter_sum", 3, False),
    ("sql_filter_count", 2, False),
    ("sql_and_count", 2, False),
    ("sql_or_select", 2, False),
    ("sql_group_sum", 2, False),
    ("sql_filter_minmax", 2, False),
    ("sql_error", 1, False),
)

#: Like the query profile: keep writes so SQL-built plans read zone maps
#: the writes replaced too.
_SQL_OP_TABLE = (
    ("fill", 3, False),
    ("setitem", 1, True),
    ("scatter", 1, True),
) + _SQL_OPS

#: Codec-migration targets (codec profile).  ``bitpack`` is a real
#: target: migrating *back* exercises the encoded-source repack path
#: and re-enables the bit-packed accounting expectations.
CODEC_TARGETS: Tuple[str, ...] = ("dict", "rle", "delta", "bitpack")

#: The codec profile is write-free after the initial fill (encoded
#: layouts are immutable), and alternates reads/scans/queries with
#: codec migrations so every operator runs against every layout.
#: ``codec_encode`` steps a migration with a full storage check between
#: steps; ``codec_encode_during_scan`` races full-array sums on the
#: main thread against a stepping thread.
_CODEC_OP_TABLE = (
    ("codec_encode", 5, False),
    ("codec_encode_during_scan", 2, False),
    ("codec_count_in_range", 4, False),
    ("codec_select_in_range", 3, False),
    ("codec_count_equal", 2, False),
    ("codec_min_max", 2, True),
    ("codec_sum_range", 2, False),
    ("codec_get", 2, True),
    ("codec_gather", 2, True),
    ("codec_to_numpy", 1, False),
    ("codec_decode_chunks", 2, True),
    ("codec_query_count", 2, False),
)

#: The cluster profile is write-free after the initial fill (shards are
#: built once from the filled values and must stay in sync with the
#: oracle), and runs every query shape distributed: filters, compound
#: predicates, group-by, min/max, row selection with LIMIT, SQL through
#: :mod:`repro.sql`, and a query raced against a live migration of one
#: shard's column.  Every op checks the distributed result against the
#: oracle *and* the single-node gather twin, plus exact wire-byte / rpc
#: accounting.
_CLUSTER_OP_TABLE = (
    ("cluster_filter_sum", 3, False),
    ("cluster_filter_count", 2, False),
    ("cluster_and_count", 2, False),
    ("cluster_or_select", 2, False),
    ("cluster_group_sum", 2, False),
    ("cluster_filter_minmax", 2, False),
    ("cluster_limit", 2, False),
    ("cluster_sql", 2, False),
    ("cluster_migrate_query", 1, True),
)

_PROFILE_TABLES = {
    "mixed": _OP_TABLE,
    "query": _QUERY_OP_TABLE,
    "obs": _OBS_OP_TABLE,
    "live": _LIVE_OP_TABLE,
    "sql": _SQL_OP_TABLE,
    "codec": _CODEC_OP_TABLE,
    "cluster": _CLUSTER_OP_TABLE,
}

#: How many surface styles the runner's SQL renderer implements.
N_SQL_STYLES = 6

#: How many malformed-statement templates the runner knows.
N_SQL_ERROR_TEMPLATES = 10


def _profile_dist(profile: str):
    table = _PROFILE_TABLES[profile]
    names = tuple(t[0] for t in table)
    weights = np.array([t[1] for t in table], dtype=float)
    return names, weights / weights.sum()


_NEEDS_NONEMPTY = {
    t[0]: t[2]
    for t in (_OP_TABLE + _QUERY_OP_TABLE + _LIVE_OP_TABLE + _SQL_OP_TABLE
              + _CODEC_OP_TABLE + _CLUSTER_OP_TABLE)
}

_PARALLEL_BATCHES = (256, 4096)


def _gen_op(rng: np.random.Generator, spec: ArraySpec, profile: str,
            vbits: int) -> Op:
    """One op for ``spec``; ``vbits`` is the value column's width."""
    length, bits = spec.length, spec.bits
    names, weights = _profile_dist(profile)
    while True:
        name = str(rng.choice(names, p=weights))
        if length == 0 and _NEEDS_NONEMPTY[name]:
            continue
        break
    if name == "fill":
        return Op(name, (int(rng.integers(0, 2**31)),))
    if name in ("init", "init_locked", "setitem"):
        idx = _gen_index(rng, length) if name == "setitem" \
            else int(rng.integers(0, length))
        return Op(name, (idx, _gen_value(rng, bits)))
    if name == "setitem_slice":
        return Op(name, _gen_slice(rng, length)
                  + (int(rng.integers(0, 2**31)),))
    if name == "setitem_slice_scalar":
        return Op(name, _gen_slice(rng, length) + (_gen_value(rng, bits),))
    if name == "scatter":
        k = int(rng.integers(1, min(length, 64) + 1))
        return Op(name, (int(rng.integers(0, 2**31)), k))
    if name == "get":
        return Op(name, (_gen_index(rng, length),))
    if name == "getitem_slice":
        return Op(name, _gen_slice(rng, length))
    if name == "gather":
        k = int(rng.integers(1, min(length, 128) + 1))
        return Op(name, (int(rng.integers(0, 2**31)), k))
    if name == "to_numpy":
        return Op(name)
    if name == "decode_chunks":
        n_chunks = -(-length // 64)
        first = int(rng.integers(0, n_chunks))
        n = int(rng.integers(1, n_chunks - first + 1))
        return Op(name, (first, n))
    if name == "sum_range":
        start, stop = _gen_range(rng, length)
        return Op(name, (start, stop, int(rng.integers(0, 2))))
    if name in ("count_in_range", "select_in_range",
                "codec_count_in_range", "codec_select_in_range"):
        return Op(name, _gen_bounds(rng, bits, length))
    if name in ("count_equal", "codec_count_equal"):
        return Op(name, (_gen_bound(rng, bits),))
    if name in ("min_max", "codec_min_max"):
        return Op(name)
    if name in ("iter_take", "take_then_get", "iter_walk"):
        start = int(rng.integers(0, length + 1))
        if name == "iter_walk":
            n = int(rng.integers(0, min(length - start, 200) + 1))
        else:
            n = int(rng.integers(1, 2 * 4096))
        if name == "take_then_get":
            # get() after take() must land in bounds.
            if start >= length:
                start = max(0, length - 1)
            n = int(rng.integers(1, max(1, length - start) + 1))
            if start + min(n, length - start) >= length:
                n = max(1, length - start - 1)
                if n <= 0 or start + n >= length:
                    return Op("iter_take", (start, 1))
        return Op(name, (start, n))
    if name == "zonemap_candidates":
        return Op(name, _gen_bounds(rng, bits, length))
    if name in ("parallel_sum", "parallel_min_max"):
        return Op(name, (int(rng.choice(_PARALLEL_BATCHES)),))
    if name in ("parallel_count", "parallel_select"):
        return Op(name, (*_gen_bounds(rng, bits, length),
                         int(rng.choice(_PARALLEL_BATCHES))))
    # Query, sql and cluster ops end in a pool flag (cluster: fan-out).
    if name in ("query_filter_sum", "query_filter_count",
                "query_filter_minmax", "query_key_sum"):
        return Op(name, (*_gen_bounds(rng, bits, length),
                         int(rng.integers(0, 2))))
    if name in ("query_and_count", "query_or_select"):
        return Op(name, (*_gen_bounds(rng, bits, length),
                         *_gen_bounds(rng, vbits, length),
                         int(rng.integers(0, 2))))
    if name == "query_group_sum":
        return Op(name, (int(rng.integers(0, 2)),))
    if name in ("sql_filter_sum", "sql_filter_count",
                "sql_filter_minmax"):
        return Op(name, (*_gen_bounds(rng, bits, length),
                         int(rng.integers(0, 2)),
                         int(rng.integers(0, N_SQL_STYLES))))
    if name in ("sql_and_count", "sql_or_select"):
        return Op(name, (*_gen_bounds(rng, bits, length),
                         *_gen_bounds(rng, vbits, length),
                         int(rng.integers(0, 2)),
                         int(rng.integers(0, N_SQL_STYLES))))
    if name == "sql_group_sum":
        return Op(name, (int(rng.integers(0, 2)),
                         int(rng.integers(0, N_SQL_STYLES))))
    if name == "sql_error":
        return Op(name, (int(rng.integers(0, N_SQL_ERROR_TEMPLATES)),))
    if name in ("cluster_filter_sum", "cluster_filter_count",
                "cluster_filter_minmax"):
        return Op(name, (*_gen_bounds(rng, bits, length),
                         int(rng.integers(0, 2))))
    if name in ("cluster_and_count", "cluster_or_select"):
        return Op(name, (*_gen_bounds(rng, bits, length),
                         *_gen_bounds(rng, vbits, length),
                         int(rng.integers(0, 2))))
    if name == "cluster_group_sum":
        return Op(name, (int(rng.integers(0, 2)),))
    if name == "cluster_limit":
        # (lo, hi, limit, fan): row query with a pushed-down LIMIT;
        # 0 and tiny prefixes are the interesting boundaries.
        return Op(name, (*_gen_bounds(rng, bits, length),
                         int(rng.integers(0, 300)),
                         int(rng.integers(0, 2))))
    if name == "cluster_sql":
        return Op(name, (*_gen_bounds(rng, bits, length),
                         int(rng.integers(0, 2)),
                         int(rng.integers(0, N_SQL_STYLES))))
    if name == "cluster_migrate_query":
        # (lo, hi, target placement, pin socket, chunk budget): a live
        # migration of one shard's value column stepped on a thread
        # while distributed queries run on the main thread.
        return Op(name, (*_gen_bounds(rng, bits, length),
                         int(rng.integers(0, len(PLACEMENTS))),
                         int(rng.integers(0, 2)),
                         int(rng.choice(_MIGRATE_BUDGETS))))
    if name in ("migrate", "migrate_during_scan"):
        # (target placement, pin socket, raw target bits, chunk budget).
        # The runner widens raw bits to whatever the data needs, so
        # these always complete; migrate_abort covers narrowing.
        return Op(name, (
            int(rng.integers(0, len(PLACEMENTS))),
            int(rng.integers(0, 2)),
            int(BIT_WIDTHS[int(rng.integers(0, len(BIT_WIDTHS)))]),
            int(rng.choice(_MIGRATE_BUDGETS)),
        ))
    if name == "migrate_with_writes":
        return Op(name, (
            int(rng.integers(0, len(PLACEMENTS))),
            int(rng.integers(0, 2)),
            int(BIT_WIDTHS[int(rng.integers(0, len(BIT_WIDTHS)))]),
            int(rng.choice(_MIGRATE_BUDGETS)),
            int(rng.integers(0, 2**31)),
            int(rng.integers(1, 5)),
        ))
    if name == "migrate_abort":
        return Op(name, (int(rng.integers(0, len(PLACEMENTS))),
                         int(rng.integers(0, 2))))
    if name in ("codec_encode", "codec_encode_during_scan"):
        # (target codec, target placement, pin socket, chunk budget).
        return Op(name, (
            int(rng.integers(0, len(CODEC_TARGETS))),
            int(rng.integers(0, len(PLACEMENTS))),
            int(rng.integers(0, 2)),
            int(rng.choice(_MIGRATE_BUDGETS)),
        ))
    if name == "codec_sum_range":
        start, stop = _gen_range(rng, length)
        return Op(name, (start, stop, int(rng.integers(0, 2))))
    if name == "codec_get":
        return Op(name, (_gen_index(rng, length),))
    if name == "codec_gather":
        k = int(rng.integers(1, min(length, 128) + 1))
        return Op(name, (int(rng.integers(0, 2**31)), k))
    if name == "codec_to_numpy":
        return Op(name)
    if name == "codec_decode_chunks":
        n_chunks = -(-length // 64)
        first = int(rng.integers(0, n_chunks))
        n = int(rng.integers(1, n_chunks - first + 1))
        return Op(name, (first, n))
    if name == "codec_query_count":
        return Op(name, (*_gen_bounds(rng, bits, length),
                         int(rng.integers(0, 2))))
    raise AssertionError(f"unhandled op {name}")  # pragma: no cover


def _gen_length(rng: np.random.Generator) -> int:
    kind = int(rng.integers(0, 8))
    if kind == 0:
        return 0
    if kind == 1:  # exact chunk multiples
        return 64 * int(rng.integers(1, 8))
    if kind == 2:  # crosses superchunk windows
        return int(rng.integers(4097, 5200))
    return int(rng.integers(1, 900))


def make_case(seed: int, index: int, profile: str = "mixed") -> Case:
    """Deterministically build case ``index`` of the run for ``seed``."""
    if profile not in _PROFILE_TABLES:
        raise ValueError(
            f"profile must be one of {PROFILES}, got {profile!r}"
        )
    rng = np.random.default_rng([seed, index])
    spec = ArraySpec(
        length=_gen_length(rng),
        bits=BIT_WIDTHS[(index // len(PLACEMENTS)) % len(BIT_WIDTHS)],
        placement=PLACEMENTS[index % len(PLACEMENTS)],
        superchunk=SUPERCHUNKS[index % len(SUPERCHUNKS)],
        pool_mode=POOL_MODES[index % len(POOL_MODES)],
    )
    n_ops = int(rng.integers(6, 13))
    ops = [Op("fill", (int(rng.integers(0, 2**31)),))]
    vbits = companion_width(seed, index, spec.bits)
    ops += [_gen_op(rng, spec, profile, vbits) for _ in range(n_ops - 1)]
    sums = [name for name in ("query_filter_sum", "cluster_filter_sum")
            if name in _profile_dist(profile)[0]]
    if vbits in SUM_CUTOFF_WIDTHS.values() and spec.length and sums:
        # A value column at a sum cutoff ends in a whole-table SUM: every
        # chunk is covered, so each one's sum comes from its synopsis
        # (58 bits) or from the kernel (59 bits, where a synopsis slot
        # would wrap on a chunk of saturated values).
        ops.append(Op(sums[0], (0, 1 << 64, int(rng.integers(0, 2)))))
    return Case(seed=seed, index=index, spec=spec, ops=tuple(ops),
                profile=profile)


def generate_cases(seed: int, total_ops: int,
                   profile: str = "mixed") -> Iterator[Case]:
    """Yield cases until their op counts reach ``total_ops``."""
    budget = total_ops
    index = 0
    while budget > 0:
        case = make_case(seed, index, profile)
        if len(case.ops) > budget:
            case = Case(case.seed, case.index, case.spec,
                        case.ops[:budget], profile=case.profile)
        budget -= len(case.ops)
        index += 1
        yield case
