"""Case execution: smart-array stack vs. oracle, plus standing invariants.

The runner replays one generated :class:`~repro.check.generator.Case`
against a freshly allocated smart array and an
:class:`~repro.check.oracle.OracleArray`, comparing:

* **results** — every operator's return value against the oracle's
  independent answer;
* **storage** — after every op, each replica's packed words decode to
  exactly the oracle's contents (all replicas identical, writes landed
  everywhere);
* **zone maps** — a clean zone map's per-chunk min/max equal the true
  chunk min/max;
* **accounting** — the deltas of ``chunk_unpacks``, scalar gets/inits,
  bulk element counters, and the summed ``replica_read_elements`` match
  the oracle's predicted decode work for the op, under every placement,
  superchunk size, and pool mode.

Any mismatch (or unexpected exception) is returned as a
:class:`CaseFailure` naming the op; the shrinker minimizes from there.
"""

from __future__ import annotations

import threading
import traceback
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from ..adapt.selector import Configuration
from ..core import bitpack, codecs, scan_ops
from ..core.allocate import allocate
from ..core.iterators import SmartArrayIterator
from ..core.map_api import sum_range
from ..core.placement import Placement
from ..core.table import SmartTable
from ..core.zonemap import ZoneMap
from ..live import LiveMigrator, MigrationBudget
from ..numa.allocator import NumaAllocator
from ..numa.topology import machine_2x8_haswell
from ..obs.registry import registry as _obs_registry
from ..obs.trace import TRACER, tracing
from ..query import Query, col, in_range
from ..runtime import parallel_scans
from ..runtime.workers import WorkerPool
from ..sql import SqlError, bind, compile_sql, parse
from ..sql.nodes import SelectStmt
from ..sql.parser import _parse_uncached
from . import oracle as orc
from .generator import (
    CODEC_TARGETS,
    PLACEMENTS,
    Case,
    Op,
    cluster_grid,
    companion_bits,
    gen_values,
)

_DISTRIBUTIONS = ("dynamic", "static")
_SOCKETS = (0, 1)


@dataclass(frozen=True)
class CaseFailure:
    """One divergence between the smart-array stack and the oracle."""

    case: Case
    op_index: int
    op: Op
    # "result" | "storage" | "zonemap" | "accounting" | "obs" |
    # "sql" | "cluster" | "exception"
    kind: str
    detail: str

    def describe(self) -> str:
        return (
            f"{self.kind} divergence at op [{self.op_index}] {self.op!r}\n"
            f"  {self.detail}\n"
            f"{self.case.describe()}"
        )


class _Divergence(Exception):
    """Internal: raised by handlers to abort the op with a failure."""

    def __init__(self, kind: str, detail: str) -> None:
        super().__init__(detail)
        self.kind = kind
        self.detail = detail


class _Zones(NamedTuple):
    """Per-chunk zone-map facts the oracle predicts a query's plan from."""

    candidates: np.ndarray  # bool per chunk
    covered: np.ndarray  # bool per chunk: every row matches
    filtered: frozenset  # columns the predicate reads


#: Columns a cluster op's predicate reads (``_Zones.filtered``).
_K = frozenset({"k"})
_KV = frozenset({"k", "v"})


def _range_zones(oracle: orc.OracleArray, lo: int,
                 hi: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(candidate, covered)`` chunk masks of ``in_range(lo, hi)``: its
    ``>= lo`` and ``< hi`` leaves, intersected as the planner does."""
    return (oracle.zonemap_candidate_mask(lo, 1 << 64)
            & oracle.zonemap_candidate_mask(0, hi),
            oracle.zonemap_covered_mask(lo, 1 << 64)
            & oracle.zonemap_covered_mask(0, hi))


def _fmt(value) -> str:
    text = repr(value)
    return text if len(text) <= 200 else text[:200] + "..."


def _parse_checked(name: str, sql: str) -> SelectStmt:
    """``parse(sql)`` — served from the parse memo whenever the shape
    was seen before — checked against a fresh, uncached parse of the
    same text: a memo that serves a tree its parser would no longer
    build (a stale template, a key that confuses two shapes) diverges
    here even when the served tree happens to bind."""
    stmt = parse(sql)
    fresh = _parse_uncached(sql)
    if stmt != fresh:
        raise _Divergence(
            "sql",
            f"{name}: {sql!r} parsed (memo) to\n{stmt!r}\n"
            f"but a fresh parse gives\n{fresh!r}")
    return stmt


class CaseRunner:
    """Executes one case, op by op, with differential + invariant checks."""

    def __init__(self, case: Case, n_workers: int = 4) -> None:
        self.case = case
        spec = case.spec
        self.machine = machine_2x8_haswell()
        self.allocator = NumaAllocator(self.machine)
        flags = {}
        if spec.placement == "pinned":
            flags["pinned"] = 1
        elif spec.placement == "interleaved":
            flags["interleaved"] = True
        elif spec.placement == "replicated":
            flags["replicated"] = True
        self.array = allocate(spec.length, bits=spec.bits,
                              allocator=self.allocator, **flags)
        self.oracle = orc.OracleArray(spec.length, spec.bits)
        self.n_workers = n_workers
        self._flags = flags
        self._pool: Optional[WorkerPool] = None
        self._zonemap: Optional[ZoneMap] = None
        self._zonemap_dirty = True
        # Query-op state: a two-column table pairing the case's array
        # ("k") with a deterministically derived value column ("v").
        self._table: Optional[SmartTable] = None
        self._companion = None
        self._oracle_v: Optional[orc.OracleArray] = None
        # The obs profile runs every op inside a trace span and
        # cross-checks the registry / per-span counter deltas against
        # the same oracle-predicted accounting `_check_stats` enforces.
        self._obs = case.profile == "obs"
        # The live profile injects online migrations; the migrator is
        # shared across a case's ops so in-flight detection is real.
        self._live = case.profile == "live"
        # The codec profile migrates the array between storage layouts
        # (bitpack <-> dict/rle/delta); like live, generations come and
        # go, so replica-read accounting sums the registry.
        self._codec = case.profile == "codec"
        self._migrator: Optional[LiveMigrator] = None
        # Cluster-profile state (lazy): the case's two-column table
        # sharded across simulated nodes, its single-node gather twin,
        # and the gather-order oracle columns every expectation is
        # computed from.
        self._cluster = case.profile == "cluster"
        self._sharded = None
        self._cluster_nodes = None
        self._twin = None
        self._gk: Optional[np.ndarray] = None
        self._gv: Optional[np.ndarray] = None

    # -- helpers -----------------------------------------------------------

    def _pool_for_case(self) -> WorkerPool:
        if self._pool is None:
            self._pool = WorkerPool(self.machine, n_workers=self.n_workers,
                                    mode=self.case.spec.pool_mode)
        return self._pool

    def _replica_reads_total(self, arr) -> int:
        # Under the live and codec profiles the replica *count* changes
        # across migrations (e.g. replicated -> pinned drops a counter
        # from the array's current view), so total decode accounting
        # sums every replica counter the array ever registered.
        if self._live or self._codec:
            return int(sum(_obs_registry().values(
                "core.replica_read_elements", array=arr.stats.array_label
            ).values()))
        return sum(arr.replica_read_elements)

    def _snapshot(self) -> Dict[str, int]:
        s = self.array.stats
        snap = {
            "unpacks": s.chunk_unpacks,
            "gets": s.scalar_gets,
            "inits": s.scalar_inits,
            "bulk_read": s.bulk_elements_read,
            "bulk_written": s.bulk_elements_written,
            "replica_reads": self._replica_reads_total(self.array),
        }
        if self._companion is not None:
            cs = self._companion.stats
            snap["v_unpacks"] = cs.chunk_unpacks
            snap["v_replica_reads"] = self._replica_reads_total(
                self._companion
            )
            snap["v_bulk_written"] = cs.bulk_elements_written
        return snap

    def _check_stats(self, before: Dict[str, int],
                     expected_delta: Dict[str, int], what: str) -> None:
        after = self._snapshot()
        actual = {k: after[k] - before[k] for k in before}
        expected = {k: expected_delta.get(k, 0) for k in before}
        if actual != expected:
            diff = {k: (expected[k], actual[k]) for k in actual
                    if actual[k] != expected[k]}
            raise _Divergence(
                "accounting",
                f"{what}: counter deltas (expected, actual) = {diff}",
            )

    def _compare(self, actual, expected, what: str) -> None:
        if isinstance(actual, np.ndarray) or isinstance(expected, np.ndarray):
            ok = np.array_equal(np.asarray(actual), np.asarray(expected))
        else:
            ok = actual == expected
        if not ok:
            raise _Divergence(
                "result",
                f"{what}: stack={_fmt(actual)} oracle={_fmt(expected)}",
            )

    def _decode_replica(self, buf: np.ndarray, length: int,
                        bits: int) -> np.ndarray:
        # Decodes packed words without touching the array's stats.
        return bitpack.unpack_array(buf, length, bits)

    def _check_storage(self) -> None:
        # Decode at the generation's width, not the spec's: live
        # migrations re-compress, and a reader must only ever see a
        # (buffer, bits) pair from one consistent generation — which is
        # exactly what resolving both through one generation object
        # checks.
        spec = self.case.spec
        gen = self.array.generation
        encoded = getattr(gen, "codec", "bitpack") != "bitpack"
        for i, buf in enumerate(gen.buffers):
            if encoded:
                decoded = codecs.decode_words(buf, gen.meta)
            else:
                decoded = self._decode_replica(buf, spec.length, gen.bits)
            if not np.array_equal(decoded, self.oracle.values):
                bad = np.nonzero(decoded != self.oracle.values)[0][:5]
                raise _Divergence(
                    "storage",
                    f"replica {i} decodes wrong at indices {bad.tolist()}: "
                    f"{decoded[bad].tolist()} != oracle "
                    f"{self.oracle.values[bad].tolist()}",
                )

    def _check_zonemap_bounds(self) -> None:
        if self._zonemap is None or self._zonemap_dirty:
            return
        if self.case.spec.length == 0:
            return
        mins, maxs = self.oracle.chunk_min_max()
        zm = self._zonemap
        zmins = self._decode_replica(zm.mins.replicas[0], zm.mins.length,
                                     zm.mins.bits)
        zmaxs = self._decode_replica(zm.maxs.replicas[0], zm.maxs.length,
                                     zm.maxs.bits)
        if not (np.array_equal(zmins, mins) and np.array_equal(zmaxs, maxs)):
            raise _Divergence(
                "zonemap",
                f"zone bounds drifted from true chunk min/max: "
                f"mins {_fmt(zmins)} vs {_fmt(mins)}, "
                f"maxs {_fmt(zmaxs)} vs {_fmt(maxs)}",
            )

    def _ensure_zonemap(self) -> ZoneMap:
        if self._zonemap is None or self._zonemap_dirty:
            spec = self.case.spec
            before = self._snapshot()
            self._zonemap = ZoneMap.build(self.array,
                                          allocator=self.allocator,
                                          superchunk=spec.superchunk)
            chunks = orc.chunks_for(spec.length)
            self._check_stats(
                before,
                {"unpacks": chunks, "replica_reads": 64 * chunks},
                "ZoneMap.build",
            )
            self._zonemap_dirty = False
        return self._zonemap

    def _mark_written(self) -> None:
        self._zonemap_dirty = True

    # -- query-op helpers --------------------------------------------------

    def _ensure_query_table(self) -> SmartTable:
        """Build the two-column table on first query op (lazy: cases
        without query ops never pay for the companion column)."""
        if self._table is None:
            spec = self.case.spec
            vbits = companion_bits(spec.bits)
            vseed = int(np.random.default_rng(
                [self.case.seed, self.case.index, 0x51]).integers(0, 2**31))
            values = gen_values(vseed, spec.length, vbits)
            self._companion = allocate(spec.length, bits=vbits,
                                       allocator=self.allocator,
                                       **self._flags)
            self._companion.fill(values)
            self._oracle_v = orc.OracleArray(spec.length, vbits)
            self._oracle_v.fill(values)
            self._table = SmartTable({"k": self.array,
                                      "v": self._companion})
        return self._table

    def _ensure_query_zonemaps(self) -> None:
        """(Re)build the table's cached zone maps, charging each build's
        exact decode cost, so query plans always prune on fresh maps.
        A write to ``k`` makes ``SmartTable.zone_map`` drop its map, which
        is what triggers the rebuild here."""
        table = self._ensure_query_table()
        spec = self.case.spec
        if spec.length == 0:
            return
        chunks = orc.chunks_for(spec.length)
        if table.zone_map("k") is None:
            before = self._snapshot()
            table.build_zone_map("k", allocator=self.allocator,
                                 superchunk=spec.superchunk)
            self._check_stats(
                before,
                {"unpacks": chunks, "replica_reads": 64 * chunks},
                "build_zone_map(k)")
        if table.zone_map("v") is None:  # the value column is never written
            before = self._snapshot()
            table.build_zone_map("v", allocator=self.allocator,
                                 superchunk=spec.superchunk)
            self._check_stats(
                before,
                {"v_unpacks": chunks, "v_replica_reads": 64 * chunks},
                "build_zone_map(v)")

    def _query_zones(self, ranges_k, ranges_v, union: bool) -> _Zones:
        """Candidate and covered chunks the planner must arrive at,
        predicted from the oracles' true per-chunk min/max.

        Each ``in_range(lo, hi)`` predicate decomposes (as the planner
        sees it) into ``>= lo`` and ``< hi`` leaves whose candidate
        masks — and whose covered masks (``min >= lo``, ``max < hi``) —
        intersect; multiple columns combine by intersection (AND) or
        union (OR).  No predicate: every chunk a candidate, none
        covered.
        """
        n_chunks = orc.chunks_for(self.case.spec.length)
        zones = None
        for oracle, ranges in ((self.oracle, ranges_k),
                               (self._oracle_v, ranges_v)):
            for lo, hi in ranges:
                m = _range_zones(oracle, lo, hi)
                zones = m if zones is None else tuple(
                    (a | b) if union else (a & b) for a, b in zip(zones, m))
        filtered = frozenset(name for name, ranges in
                             (("k", ranges_k), ("v", ranges_v)) if ranges)
        if zones is None:
            return _Zones(np.ones(n_chunks, dtype=bool),
                          np.zeros(n_chunks, dtype=bool), filtered)
        return _Zones(*zones, filtered)

    def _predict_decode(self, query: Query,
                        zones: _Zones) -> Tuple[int, int, Dict[str, int]]:
        """``(candidate chunks, covered morsels, decoded chunks per
        column)`` for ``query`` run at the case's morsel size.

        A morsel (``spec.superchunk`` elements) is covered when it has a
        candidate chunk and every one of them is covered; a column only
        the predicate reads decodes the candidates outside covered
        morsels, every other needed column all of them.
        """
        per_morsel = self.case.spec.superchunk // orc.CHUNK
        candidates = zones.candidates
        n_morsels = -(-candidates.size // per_morsel)

        def by_morsel(mask: np.ndarray) -> np.ndarray:
            padded = np.zeros(n_morsels * per_morsel, dtype=bool)
            padded[:mask.size] = mask
            return padded.reshape(n_morsels, per_morsel)

        grid = by_morsel(candidates)
        covered = (grid.any(axis=1)
                   & ~by_morsel(candidates & ~zones.covered).any(axis=1))
        chunks = int(candidates.sum())
        skipped = int(grid[covered].sum())
        outputs = {query.group_key, *(query.projection or ())}
        outputs.update(spec.column for spec in query.aggregates)
        decoded = {name: chunks - (0 if name in outputs else skipped)
                   for name in zones.filtered | (outputs - {None})}
        return chunks, int(covered.sum()), decoded

    def _check_query(self, op: Op, query: Query, expected, zones: _Zones,
                     par: int, dist: int) -> None:
        """Run ``query`` and check result, plan, and decode accounting.

        The result must equal the oracle's — group results as ordered
        item lists against the key-sorted expectation, so key order
        counts too — and the plan's candidate chunks, the covered
        morsels, and every needed column's decode accounting must equal
        the oracle's prediction (:meth:`_predict_decode`).
        """
        spec = self.case.spec
        pool = self._pool_for_case() if par else None
        before = self._snapshot()
        result = query.run(pool=pool, distribution=_DISTRIBUTIONS[dist],
                           morsel=spec.superchunk)
        if result.kind == "aggregate":
            self._compare(tuple(result.aggregates.values()), expected,
                          op.name)
        elif result.kind == "groups":
            actual = [(k, tuple(v.values())) for k, v in result.groups.items()]
            self._compare(actual, sorted(expected.items()), op.name)
        else:
            self._compare(result.rows, expected[0], f"{op.name}.rows")
            self._compare(result.columns["v"], expected[1],
                          f"{op.name}.values")
        chunks, covered, decoded = self._predict_decode(query, zones)
        plan = result.plan
        if plan.chunks_candidate != chunks:
            raise _Divergence(
                "result",
                f"{op.name}: plan kept {plan.chunks_candidate} candidate "
                f"chunks, oracle predicts {chunks}")
        if result.stats.morsels_covered != covered:
            raise _Divergence(
                "accounting",
                f"{op.name}: {result.stats.morsels_covered} covered "
                f"morsels, oracle predicts {covered}")
        for name in plan.needed_columns:
            if result.stats.decoded_chunks[name] != decoded.get(name, 0):
                raise _Divergence(
                    "accounting",
                    f"{op.name}: stats.decoded_chunks[{name!r}] = "
                    f"{result.stats.decoded_chunks[name]}, expected "
                    f"{decoded.get(name, 0)}")
            if plan.predicted_decoded_chunks[name] != decoded.get(name, 0):
                raise _Divergence(
                    "accounting",
                    f"{op.name}: plan predicts {name!r} decodes "
                    f"{plan.predicted_decoded_chunks[name]} chunks, oracle "
                    f"{decoded.get(name, 0)}")
        delta = {}
        if "k" in plan.needed_columns:
            delta["unpacks"] = decoded.get("k", 0)
            delta["replica_reads"] = 64 * decoded.get("k", 0)
        if "v" in plan.needed_columns:
            delta["v_unpacks"] = decoded.get("v", 0)
            delta["v_replica_reads"] = 64 * decoded.get("v", 0)
        self._check_stats(before, delta, op.name)

    # -- op execution ------------------------------------------------------

    def run(self) -> Optional[CaseFailure]:
        if self._obs:
            with tracing():
                return self._run_ops()
        return self._run_ops()

    def _run_ops(self) -> Optional[CaseFailure]:
        for i, op in enumerate(self.case.ops):
            try:
                if self._obs:
                    self._run_op_traced(i, op)
                else:
                    self._run_op(op)
                self._check_storage()
                self._check_zonemap_bounds()
            except _Divergence as d:
                return CaseFailure(self.case, i, op, d.kind, d.detail)
            except Exception:
                tb = traceback.format_exc().strip().splitlines()
                return CaseFailure(self.case, i, op, "exception",
                                   " | ".join(tb[-3:]))
        return None

    # -- obs-profile invariants --------------------------------------------

    #: snapshot key -> (registry metric name, uses the companion array)
    _OBS_METRICS = {
        "unpacks": ("core.chunk_unpacks", False),
        "gets": ("core.scalar_gets", False),
        "inits": ("core.scalar_inits", False),
        "bulk_read": ("core.bulk_elements_read", False),
        "bulk_written": ("core.bulk_elements_written", False),
        "replica_reads": ("core.replica_read_elements", False),
        "v_unpacks": ("core.chunk_unpacks", True),
        "v_replica_reads": ("core.replica_read_elements", True),
        "v_bulk_written": ("core.bulk_elements_written", True),
    }

    def _run_op_traced(self, i: int, op: Op) -> None:
        before = self._snapshot()
        with TRACER.span("check.op", op=op.name, index=i) as span:
            self._run_op(op)
        after = self._snapshot()
        # 1. The span's captured registry deltas must equal the stats
        #    deltas the oracle checks validated — a lost update in the
        #    trace-capture path (or a double count only visible through
        #    the registry) diverges here.
        for key in before:
            name, companion = self._OBS_METRICS[key]
            label = (self._companion if companion
                     else self.array).stats.array_label
            span_delta = int(span.counter_total(name, array=label))
            stats_delta = after[key] - before[key]
            if span_delta != stats_delta:
                raise _Divergence(
                    "obs",
                    f"{op.name}: span delta for {name}[array={label}] = "
                    f"{span_delta}, stats delta = {stats_delta}")
        # 2. The registry's absolute values must agree with the
        #    AccessStats view — catches registry bookkeeping bugs
        #    (e.g. a finalizer dropping a live array's counters, which
        #    would make value() read a fresh zeroed counter).
        reg = _obs_registry()
        arrays = [self.array]
        if self._companion is not None:
            arrays.append(self._companion)
        for arr in arrays:
            label = arr.stats.array_label
            snap = arr.stats.snapshot()
            for field, expected in snap.items():
                got = int(reg.value(f"core.{field}", array=label))
                if got != expected:
                    raise _Divergence(
                        "obs",
                        f"{op.name}: registry core.{field}[array={label}]"
                        f" = {got}, AccessStats reads {expected}")
            reg_reads = sum(
                int(v) for v in reg.values(
                    "core.replica_read_elements", array=label
                ).values()
            )
            if reg_reads != sum(arr.replica_read_elements):
                raise _Divergence(
                    "obs",
                    f"{op.name}: registry replica reads {reg_reads} != "
                    f"array view {sum(arr.replica_read_elements)}")

    def _fit_current(self, values):
        """Mask generated write values to the array's *current* width.

        Generated values target the spec's width; under the live profile
        a migration may have narrowed the array since, and writes must
        fit the live generation (the stack raises ValueOverflowError
        otherwise, by design)."""
        if not self._live or self.array.bits >= self.case.spec.bits:
            return values
        mask = (1 << self.array.bits) - 1
        if isinstance(values, np.ndarray):
            return values & np.uint64(mask)
        return int(values) & mask

    def _run_op(self, op: Op) -> None:
        spec = self.case.spec
        length, bits, sc = spec.length, spec.bits, spec.superchunk
        a, o = self.array, self.oracle
        args = op.args
        before = self._snapshot()

        if op.name == "fill":
            values = self._fit_current(gen_values(args[0], length, bits))
            a.fill(values)
            o.fill(values)
            self._mark_written()
            self._check_stats(before, {"bulk_written": length}, op.name)

        elif op.name in ("init", "init_locked"):
            idx, value = args
            value = self._fit_current(value)
            getattr(a, op.name)(idx, value)
            o.set(idx, value)
            self._mark_written()
            self._check_stats(before, {"inits": 1}, op.name)

        elif op.name == "setitem":
            idx, value = args
            value = self._fit_current(value)
            a[idx] = value
            o.set(idx if idx >= 0 else idx + length, value)
            self._mark_written()
            self._check_stats(before, {"inits": 1}, op.name)

        elif op.name in ("setitem_slice", "setitem_slice_scalar"):
            start, stop, step, last = args
            sl = slice(start, stop, step)
            idx = np.arange(*sl.indices(length), dtype=np.int64)
            if op.name == "setitem_slice":
                values = gen_values(last, idx.size, bits)
            else:
                values = np.full(idx.size, np.uint64(last), dtype=np.uint64)
            a[sl] = values if op.name == "setitem_slice" else last
            o.scatter(idx, values)
            self._mark_written()
            self._check_stats(before, {"bulk_written": idx.size}, op.name)

        elif op.name == "scatter":
            vseed, k = args
            rng = np.random.default_rng(vseed)
            idx = rng.choice(length, size=k, replace=False).astype(np.int64)
            values = self._fit_current(
                rng.integers(0, (1 << bits) - 1, size=k,
                             dtype=np.uint64, endpoint=True))
            a.scatter_many(idx, values)
            o.scatter(idx, values)
            self._mark_written()
            self._check_stats(before, {"bulk_written": k}, op.name)

        elif op.name == "get":
            idx = args[0]
            self._compare(a[idx], o.get(idx if idx >= 0 else idx + length),
                          op.name)
            self._check_stats(before, {"gets": 1}, op.name)

        elif op.name == "getitem_slice":
            sl = slice(*args)
            idx = np.arange(*sl.indices(length), dtype=np.int64)
            self._compare(a[sl], o.gather(idx), op.name)
            self._check_stats(before, {"bulk_read": idx.size}, op.name)

        elif op.name == "gather":
            vseed, k = args
            rng = np.random.default_rng(vseed)
            idx = rng.choice(length, size=k, replace=True).astype(np.int64)
            self._compare(a.gather_many(idx), o.gather(idx), op.name)
            self._check_stats(before, {"bulk_read": k}, op.name)

        elif op.name == "to_numpy":
            self._compare(a.to_numpy(), o.values, op.name)
            self._check_stats(
                before, {"bulk_read": length, "replica_reads": length},
                op.name)

        elif op.name == "decode_chunks":
            first, n = args
            decoded = a.decode_chunks(first, n)
            logical = o.values[first * 64:min(length, (first + n) * 64)]
            self._compare(decoded[:logical.size], logical, op.name)
            self._check_stats(
                before, {"unpacks": n, "replica_reads": 64 * n}, op.name)

        elif op.name == "sum_range":
            start, stop, socket = args
            actual = sum_range(a, start, stop, socket=_SOCKETS[socket],
                               superchunk=sc)
            self._compare(actual, o.sum_range(start, stop), op.name)
            chunks = orc.span_chunks(start, stop, sc)
            self._check_stats(
                before, {"unpacks": chunks, "replica_reads": 64 * chunks},
                op.name)

        elif op.name in ("count_in_range", "select_in_range"):
            lo, hi, start, stop, socket = args
            fn = getattr(scan_ops, op.name)
            actual = fn(a, lo, hi, start, stop, socket=_SOCKETS[socket],
                        superchunk=sc)
            expected = (o.count_in_range(lo, hi, start, stop)
                        if op.name == "count_in_range"
                        else o.select_in_range(lo, hi, start, stop))
            self._compare(actual, expected, op.name)
            chunks = (orc.span_chunks(start, stop, sc)
                      if orc.clamp_range(lo, hi) is not None else 0)
            self._check_stats(
                before, {"unpacks": chunks, "replica_reads": 64 * chunks},
                op.name)

        elif op.name == "count_equal":
            value, socket = args
            actual = scan_ops.count_equal(a, value, socket=_SOCKETS[socket],
                                          superchunk=sc)
            self._compare(actual, o.count_equal(value), op.name)
            chunks = (orc.span_chunks(0, length, sc)
                      if 0 <= value <= orc.U64_MAX else 0)
            self._check_stats(
                before, {"unpacks": chunks, "replica_reads": 64 * chunks},
                op.name)

        elif op.name == "select_mod":
            m, r, start, stop, socket = args
            m64, r64 = np.uint64(m), np.uint64(r)
            actual = scan_ops.select_where(
                a, lambda span: span % m64 == r64, start, stop,
                socket=_SOCKETS[socket], superchunk=sc)
            self._compare(actual, o.select_mod(m, r, start, stop), op.name)
            chunks = orc.span_chunks(start, stop, sc)
            self._check_stats(
                before, {"unpacks": chunks, "replica_reads": 64 * chunks},
                op.name)

        elif op.name == "min_max":
            start, stop, socket = args
            actual = scan_ops.min_max(a, start, stop,
                                      socket=_SOCKETS[socket], superchunk=sc)
            self._compare(actual, o.min_max(start, stop), op.name)
            chunks = orc.span_chunks(start, stop, sc)
            self._check_stats(
                before, {"unpacks": chunks, "replica_reads": 64 * chunks},
                op.name)

        elif op.name in ("iter_take", "take_then_get"):
            start, n = args
            it = SmartArrayIterator.allocate(a, start)
            taken = it.take(n)
            n_eff = max(0, min(n, length - start))
            self._compare(taken, o.values[start:start + n_eff], op.name)
            if it.index != start + n_eff:
                raise _Divergence(
                    "result",
                    f"{op.name}: iterator at {it.index}, "
                    f"expected {start + n_eff}")
            if op.name == "take_then_get":
                self._compare(it.get(), o.get(start + n_eff),
                              "take_then_get.get")
            acct = o.take_accounting(start, n)
            self._check_stats(
                before,
                {"unpacks": acct["chunk_unpacks"],
                 "replica_reads": acct["replica_reads"]},
                op.name)

        elif op.name == "iter_walk":
            start, k = args
            it = SmartArrayIterator.allocate(a, start)
            walked = np.empty(k, dtype=np.uint64)
            for j in range(k):
                walked[j] = it.get()
                it.next()
            self._compare(walked, o.values[start:start + k], op.name)
            self._check_stats(
                before, {"unpacks": o.walk_unpacks(start, k)}, op.name)

        elif op.name in ("zonemap_count", "zonemap_select",
                         "zonemap_candidates"):
            lo, hi = args
            zm = self._ensure_zonemap()
            before = self._snapshot()
            if op.name == "zonemap_candidates":
                self._compare(zm.candidate_chunks(lo, hi),
                              o.zonemap_candidates(lo, hi), op.name)
                self._check_stats(before, {}, op.name)
            else:
                count_only = op.name == "zonemap_count"
                if count_only:
                    actual = zm.count_in_range(lo, hi, superchunk=sc)
                    expected = o.count_in_range(lo, hi)
                else:
                    actual = zm.select_in_range(lo, hi, superchunk=sc)
                    expected = o.select_in_range(lo, hi)
                self._compare(actual, expected, op.name)
                chunks = o.zonemap_decoded_chunks(lo, hi, count_only)
                self._check_stats(
                    before,
                    {"unpacks": chunks, "replica_reads": 64 * chunks},
                    op.name)

        elif op.name in ("parallel_sum", "parallel_min_max"):
            batch, dist = args
            pool = self._pool_for_case()
            chunks = orc.chunks_for(length)
            if op.name == "parallel_sum":
                actual = parallel_scans.parallel_sum(
                    a, pool=pool, batch=batch,
                    distribution=_DISTRIBUTIONS[dist])
                expected = o.sum_range(0, length)
            else:
                actual = parallel_scans.parallel_min_max(
                    a, pool=pool, batch=batch,
                    distribution=_DISTRIBUTIONS[dist])
                expected = o.min_max(0, length)
            self._compare(actual, expected, op.name)
            self._check_stats(
                before, {"unpacks": chunks, "replica_reads": 64 * chunks},
                op.name)

        elif op.name in ("parallel_count", "parallel_select"):
            lo, hi, batch, dist = args
            pool = self._pool_for_case()
            if op.name == "parallel_count":
                actual = parallel_scans.parallel_count_in_range(
                    a, lo, hi, pool=pool, batch=batch,
                    distribution=_DISTRIBUTIONS[dist])
                expected = o.count_in_range(lo, hi)
            else:
                actual = parallel_scans.parallel_select_in_range(
                    a, lo, hi, pool=pool, batch=batch,
                    distribution=_DISTRIBUTIONS[dist])
                expected = o.select_in_range(lo, hi)
            self._compare(actual, expected, op.name)
            chunks = (orc.chunks_for(length)
                      if orc.clamp_range(lo, hi) is not None else 0)
            self._check_stats(
                before, {"unpacks": chunks, "replica_reads": 64 * chunks},
                op.name)

        elif op.name.startswith("query_"):
            self._run_query_op(op)

        elif op.name.startswith("sql_"):
            self._run_sql_op(op)

        elif op.name.startswith("migrate"):
            self._run_migrate_op(op, before)

        elif op.name.startswith("codec_"):
            self._run_codec_op(op, before)

        elif op.name.startswith("cluster_"):
            self._run_cluster_op(op)
            # Cluster ops read only the sharded copies and the twin —
            # the case array's own counters must not move at all.
            self._check_stats(before, {}, op.name)

        else:  # pragma: no cover - generator and runner share the table
            raise AssertionError(f"unknown op {op.name!r}")

    # -- live-profile migration ops ----------------------------------------

    def _migrator_for_case(self) -> LiveMigrator:
        if self._migrator is None:
            self._migrator = LiveMigrator(self.allocator)
        return self._migrator

    def _live_placement(self, placement_idx: int, socket: int) -> Placement:
        name = PLACEMENTS[placement_idx % len(PLACEMENTS)]
        if name == "pinned":
            return Placement.single_socket(socket)
        if name == "interleaved":
            return Placement.interleaved()
        if name == "replicated":
            return Placement.replicated()
        return Placement.os_default()

    def _needed_bits(self) -> int:
        values = self.oracle.values
        return bitpack.max_bits_needed(values) if values.size else 1

    def _run_migrate_op(self, op: Op, before: Dict[str, int]) -> None:
        spec = self.case.spec
        length, sc = spec.length, spec.superchunk
        a, o = self.array, self.oracle
        migrator = self._migrator_for_case()

        if op.name in ("migrate", "migrate_with_writes"):
            if op.name == "migrate":
                pidx, socket, raw_bits, budget = op.args
                vseed = n_writes = 0
            else:
                pidx, socket, raw_bits, budget, vseed, n_writes = op.args
            tbits = max(raw_bits, self._needed_bits())
            target = Configuration(self._live_placement(pidx, socket), tbits)
            migration = migrator.start(
                a, target, budget=MigrationBudget(max_chunks_per_step=budget)
            )
            rng = np.random.default_rng(vseed)
            writes = 0
            while True:
                alive = migration.step()
                if writes < n_writes and length:
                    # Dual-write coverage: the value must fit both the
                    # live generation and the migration target.
                    idx = int(rng.integers(0, length))
                    value = int(rng.integers(
                        0, (1 << min(a.bits, tbits)) - 1,
                        dtype=np.uint64, endpoint=True))
                    a[idx] = value
                    o.set(idx, value)
                    writes += 1
                    self._mark_written()
                # Between *every* step the live generation must decode
                # to exactly the oracle — no half-migrated state.
                self._check_storage()
                if not alive:
                    break
            if migration.state != "completed":
                raise _Divergence(
                    "result",
                    f"{op.name}: migration ended {migration.state!r} "
                    f"({migration.abort_reason})")
            if a.bits != tbits or a.placement != target.placement:
                raise _Divergence(
                    "result",
                    f"{op.name}: array is {a.bits}b "
                    f"{a.placement.describe()} after migrating to "
                    f"{target.describe()}")
            # The oracle's accounting model follows the live width.
            o.bits = a.bits
            self._check_stats(before, {"inits": writes}, op.name)

        elif op.name == "migrate_during_scan":
            pidx, socket, raw_bits, budget = op.args
            tbits = max(raw_bits, self._needed_bits())
            target = Configuration(self._live_placement(pidx, socket), tbits)
            migration = migrator.start(
                a, target, budget=MigrationBudget(max_chunks_per_step=budget)
            )
            errors = []

            def drive() -> None:
                try:
                    while migration.step():
                        pass
                except Exception as exc:  # surfaced after join
                    errors.append(exc)

            stepper = threading.Thread(target=drive, name="check-migrate")
            stepper.start()
            try:
                expected_sum = o.sum_range(0, length)
                for _ in range(3):
                    self._compare(
                        sum_range(a, 0, length, superchunk=sc),
                        expected_sum, op.name)
            finally:
                stepper.join()
            if errors:
                raise errors[0]
            if migration.state != "completed":
                raise _Divergence(
                    "result",
                    f"{op.name}: migration ended {migration.state!r} "
                    f"({migration.abort_reason})")
            o.bits = a.bits
            chunks = 3 * orc.span_chunks(0, length, sc)
            self._check_stats(
                before, {"unpacks": chunks, "replica_reads": 64 * chunks},
                op.name)

        elif op.name == "migrate_abort":
            pidx, socket = op.args
            needed = self._needed_bits()
            if needed <= 1:
                return  # cannot narrow below 1 bit; nothing to abort
            ledger = self.allocator.ledger
            free_before = [ledger.free_bytes(s)
                           for s in range(self.machine.n_sockets)]
            bits_before = a.bits
            target = Configuration(
                self._live_placement(pidx, socket), needed - 1)
            migration = migrator.start(a, target)
            while migration.step():
                pass
            if migration.state != "aborted":
                raise _Divergence(
                    "result",
                    f"{op.name}: narrowing to {needed - 1}b ended "
                    f"{migration.state!r}, expected aborted")
            if a.bits != bits_before:
                raise _Divergence(
                    "result",
                    f"{op.name}: aborted migration changed width "
                    f"{bits_before} -> {a.bits}")
            free_after = [ledger.free_bytes(s)
                          for s in range(self.machine.n_sockets)]
            if free_after != free_before:
                raise _Divergence(
                    "result",
                    f"{op.name}: aborted migration leaked ledger bytes "
                    f"{free_before} -> {free_after}")
            self._check_stats(before, {}, op.name)

        else:  # pragma: no cover - generator and runner share the table
            raise AssertionError(f"unknown migrate op {op.name!r}")

    # -- codec-profile ops -------------------------------------------------

    def _encoded_now(self) -> bool:
        return getattr(self.array.generation, "codec", "bitpack") != "bitpack"

    def _run_codec_op(self, op: Op, before: Dict[str, int]) -> None:
        spec = self.case.spec
        length, sc = spec.length, spec.superchunk
        a, o = self.array, self.oracle

        if op.name in ("codec_encode", "codec_encode_during_scan"):
            cidx, pidx, socket, budget = op.args
            codec = CODEC_TARGETS[cidx % len(CODEC_TARGETS)]
            target = Configuration(
                self._live_placement(pidx, socket), self._needed_bits(),
                codec)
            migration = self._migrator_for_case().start(
                a, target,
                budget=MigrationBudget(max_chunks_per_step=budget))
            expected_delta: Dict[str, int] = {}
            if op.name == "codec_encode":
                # Between *every* step the live generation must decode
                # to exactly the oracle — a reader never observes a
                # partially encoded layout.
                while True:
                    alive = migration.step()
                    self._check_storage()
                    if not alive:
                        break
            else:
                errors = []

                def drive() -> None:
                    try:
                        while migration.step():
                            pass
                    except Exception as exc:  # surfaced after join
                        errors.append(exc)

                stepper = threading.Thread(target=drive,
                                           name="check-codec-migrate")
                stepper.start()
                try:
                    expected_sum = o.sum_range(0, length)
                    for _ in range(3):
                        self._compare(
                            sum_range(a, 0, length, superchunk=sc),
                            expected_sum, op.name)
                finally:
                    stepper.join()
                if errors:
                    raise errors[0]
                chunks = 3 * orc.span_chunks(0, length, sc)
                expected_delta = {"unpacks": chunks,
                                  "replica_reads": 64 * chunks}
            if migration.state != "completed":
                raise _Divergence(
                    "result",
                    f"{op.name}: migration ended {migration.state!r} "
                    f"({migration.abort_reason})")
            got = getattr(a.generation, "codec", "bitpack")
            if got != codec or a.placement != target.placement:
                raise _Divergence(
                    "result",
                    f"{op.name}: array is {got} "
                    f"{a.placement.describe()} after migrating to "
                    f"{target.describe()}")
            # The oracle's (iterator) accounting model follows the
            # decoded-value width, not the encoded payload width.
            o.bits = a.value_bits
            self._check_stats(before, expected_delta, op.name)

        elif op.name in ("codec_count_in_range", "codec_select_in_range"):
            lo, hi, socket = op.args
            enc = self._encoded_now()
            if op.name == "codec_count_in_range":
                actual = scan_ops.count_in_range(
                    a, lo, hi, socket=_SOCKETS[socket], superchunk=sc)
                expected = o.count_in_range(lo, hi)
            else:
                actual = scan_ops.select_in_range(
                    a, lo, hi, socket=_SOCKETS[socket], superchunk=sc)
                expected = o.select_in_range(lo, hi)
            self._compare(actual, expected, op.name)
            # The encoded-domain fast path must decode *zero* chunks;
            # the bit-packed path decodes the full span.
            chunks = 0
            if not enc and orc.clamp_range(lo, hi) is not None:
                chunks = orc.span_chunks(0, length, sc)
            self._check_stats(
                before, {"unpacks": chunks, "replica_reads": 64 * chunks},
                op.name)

        elif op.name == "codec_count_equal":
            value, socket = op.args
            enc = self._encoded_now()
            actual = scan_ops.count_equal(a, value, socket=_SOCKETS[socket],
                                          superchunk=sc)
            self._compare(actual, o.count_equal(value), op.name)
            chunks = 0
            if not enc and 0 <= value <= orc.U64_MAX:
                chunks = orc.span_chunks(0, length, sc)
            self._check_stats(
                before, {"unpacks": chunks, "replica_reads": 64 * chunks},
                op.name)

        elif op.name == "codec_min_max":
            socket = op.args[0]
            enc = self._encoded_now()
            actual = scan_ops.min_max(a, 0, length,
                                      socket=_SOCKETS[socket], superchunk=sc)
            self._compare(actual, o.min_max(0, length), op.name)
            chunks = 0 if enc else orc.span_chunks(0, length, sc)
            self._check_stats(
                before, {"unpacks": chunks, "replica_reads": 64 * chunks},
                op.name)

        elif op.name == "codec_sum_range":
            # No encoded sum summary exists: sums decode spans through
            # the codec-aware blocked kernel in every layout.
            start, stop, socket = op.args
            actual = sum_range(a, start, stop, socket=_SOCKETS[socket],
                               superchunk=sc)
            self._compare(actual, o.sum_range(start, stop), op.name)
            chunks = orc.span_chunks(start, stop, sc)
            self._check_stats(
                before, {"unpacks": chunks, "replica_reads": 64 * chunks},
                op.name)

        elif op.name == "codec_get":
            idx = op.args[0]
            self._compare(a[idx], o.get(idx if idx >= 0 else idx + length),
                          op.name)
            self._check_stats(before, {"gets": 1}, op.name)

        elif op.name == "codec_gather":
            vseed, k = op.args
            rng = np.random.default_rng(vseed)
            idx = rng.choice(length, size=k, replace=True).astype(np.int64)
            self._compare(a.gather_many(idx), o.gather(idx), op.name)
            self._check_stats(before, {"bulk_read": k}, op.name)

        elif op.name == "codec_to_numpy":
            self._compare(a.to_numpy(), o.values, op.name)
            self._check_stats(
                before, {"bulk_read": length, "replica_reads": length},
                op.name)

        elif op.name == "codec_decode_chunks":
            first, n = op.args
            decoded = a.decode_chunks(first, n)
            logical = o.values[first * 64:min(length, (first + n) * 64)]
            self._compare(decoded[:logical.size], logical, op.name)
            self._check_stats(
                before, {"unpacks": n, "replica_reads": 64 * n}, op.name)

        elif op.name == "codec_query_count":
            lo, hi, par, dist = op.args
            table = self._ensure_query_table()
            self._ensure_query_zonemaps()
            mask = o.range_mask(lo, hi)
            chunks = self._query_zones([(lo, hi)], [], union=False)
            q = Query(table).where(in_range("k", lo, hi)).count()
            self._check_query(op, q, (int(mask.sum()),), chunks, par, dist)

        elif op.name == "codec_zonemap_count":
            lo, hi = op.args
            zm = self._ensure_zonemap()
            before = self._snapshot()
            actual = zm.count_in_range(lo, hi, superchunk=sc)
            self._compare(actual, o.count_in_range(lo, hi), op.name)
            chunks = o.zonemap_decoded_chunks(lo, hi, True)
            self._check_stats(
                before, {"unpacks": chunks, "replica_reads": 64 * chunks},
                op.name)

        else:  # pragma: no cover - generator and runner share the table
            raise AssertionError(f"unknown codec op {op.name!r}")

    def _run_query_op(self, op: Op) -> None:
        spec = self.case.spec
        table = self._ensure_query_table()
        self._ensure_query_zonemaps()
        o, ov = self.oracle, self._oracle_v

        if op.name in ("query_filter_sum", "query_filter_count",
                       "query_filter_minmax", "query_key_sum"):
            lo, hi, par, dist = op.args
            mask = o.range_mask(lo, hi)
            chunks = self._query_zones([(lo, hi)], [], union=False)
            q = Query(table).where(in_range("k", lo, hi))
            vals = ov.values[mask]
            if op.name == "query_filter_sum":
                q = q.sum("v")
                expected = (
                    int(vals.astype(object).sum()) if vals.size else 0,
                )
            elif op.name == "query_filter_count":
                q = q.count()
                expected = (int(mask.sum()),)
            elif op.name == "query_key_sum":
                # Sums the case array itself — the column a live
                # migration re-widths — so a kernel specialized on the
                # old width has to be told apart from the new one.
                q = q.sum("k")
                expected = (int(o.values[mask].astype(object).sum()),)
            else:
                q = q.min("v").max("v")
                expected = (
                    int(vals.min()) if vals.size else None,
                    int(vals.max()) if vals.size else None,
                )
            self._check_query(op, q, expected, chunks, par, dist)

        elif op.name == "query_and_count":
            lo1, hi1, lo2, hi2, par, dist = op.args
            mask = o.range_mask(lo1, hi1) & ov.range_mask(lo2, hi2)
            chunks = self._query_zones([(lo1, hi1)], [(lo2, hi2)],
                                            union=False)
            q = Query(table).where(
                in_range("k", lo1, hi1) & in_range("v", lo2, hi2)
            ).count()
            self._check_query(op, q, (int(mask.sum()),), chunks, par, dist)

        elif op.name == "query_or_select":
            lo1, hi1, lo2, hi2, par, dist = op.args
            mask = o.range_mask(lo1, hi1) | ov.range_mask(lo2, hi2)
            chunks = self._query_zones([(lo1, hi1)], [(lo2, hi2)],
                                            union=True)
            q = Query(table).where(
                in_range("k", lo1, hi1) | in_range("v", lo2, hi2)
            ).select("v")
            rows = np.nonzero(mask)[0].astype(np.int64)
            self._check_query(op, q, (rows, ov.values[rows]), chunks,
                              par, dist)

        elif op.name == "query_group_sum":
            par, dist = op.args
            chunks = self._query_zones([], [], union=False)
            q = Query(table).group_by("k").sum("v")
            groups: Dict[int, int] = {}
            for kk, vv in zip(o.values.tolist(), ov.values.tolist()):
                groups[kk] = groups.get(kk, 0) + vv
            expected = {k: (v,) for k, v in groups.items()}
            self._check_query(op, q, expected, chunks, par, dist)

        else:  # pragma: no cover - generator and runner share the table
            raise AssertionError(f"unknown query op {op.name!r}")

    # -- sql-profile ops ---------------------------------------------------

    def _run_sql_op(self, op: Op) -> None:
        """SQL-frontend twin of a query op.

        Renders a SQL statement for the op's arguments (surface style
        fuzzed by the trailing style int), compiles it through
        :func:`repro.sql.compile_sql`, asserts the bound logical plan
        is *identical* to the directly-built fluent twin's, then runs
        the bound query through the full query differential checks —
        oracle results (group key order included), planner candidate
        chunks, exact decode accounting — so a SQL
        statement and its twin are provably bit-identical end to end.
        """
        table = self._ensure_query_table()
        if op.name == "sql_error":
            self._run_sql_error_op(op, table)
            return
        self._ensure_query_zonemaps()
        o, ov = self.oracle, self._oracle_v
        spec = self.case.spec
        style = op.args[-1]
        sql = _render_sql_op(op.name, op.args, style)

        if op.name in ("sql_filter_sum", "sql_filter_count",
                       "sql_filter_minmax"):
            lo, hi, par, dist = op.args[:4]
            mask = o.range_mask(lo, hi)
            chunks = self._query_zones([(lo, hi)], [], union=False)
            twin = Query(table).where(in_range("k", lo, hi))
            vals = ov.values[mask]
            if op.name == "sql_filter_sum":
                twin = twin.sum("v")
                expected = (
                    int(vals.astype(object).sum()) if vals.size else 0,
                )
            elif op.name == "sql_filter_count":
                twin = twin.count()
                expected = (int(mask.sum()),)
            else:
                twin = twin.min("v").max("v")
                expected = (
                    int(vals.min()) if vals.size else None,
                    int(vals.max()) if vals.size else None,
                )
        elif op.name == "sql_and_count":
            lo1, hi1, lo2, hi2, par, dist = op.args[:6]
            mask = o.range_mask(lo1, hi1) & ov.range_mask(lo2, hi2)
            chunks = self._query_zones([(lo1, hi1)], [(lo2, hi2)],
                                            union=False)
            twin = Query(table).where(
                in_range("k", lo1, hi1) & in_range("v", lo2, hi2)
            ).count()
            expected = (int(mask.sum()),)
        elif op.name == "sql_or_select":
            lo1, hi1, lo2, hi2, par, dist = op.args[:6]
            mask = o.range_mask(lo1, hi1) | ov.range_mask(lo2, hi2)
            chunks = self._query_zones([(lo1, hi1)], [(lo2, hi2)],
                                            union=True)
            twin = Query(table).where(
                in_range("k", lo1, hi1) | in_range("v", lo2, hi2)
            ).select("v")
            rows = np.nonzero(mask)[0].astype(np.int64)
            expected = (rows, ov.values[rows])
        elif op.name == "sql_group_sum":
            par, dist = op.args[:2]
            chunks = self._query_zones([], [], union=False)
            twin = Query(table).group_by("k").sum("v")
            groups: Dict[int, int] = {}
            for kk, vv in zip(o.values.tolist(), ov.values.tolist()):
                groups[kk] = groups.get(kk, 0) + vv
            expected = {k: (v,) for k, v in groups.items()}
        else:  # pragma: no cover - generator and runner share the table
            raise AssertionError(f"unknown sql op {op.name!r}")

        try:
            bound = bind(_parse_checked(op.name, sql), {"t": table})
        except SqlError as exc:
            raise _Divergence(
                "sql",
                f"{op.name}: {sql!r} failed to compile: {exc}")
        if bound.describe() != twin.describe():
            raise _Divergence(
                "sql",
                f"{op.name}: {sql!r} lowered to\n{bound.describe()}\n"
                f"but the fluent twin is\n{twin.describe()}")
        self._check_query(op, bound, expected, chunks, par, dist)

    def _run_sql_error_op(self, op: Op, table: SmartTable) -> None:
        """A malformed statement must fail with a *positioned*
        :class:`SqlError` — never compile, never raise anything else."""
        sql = _SQL_ERROR_TEMPLATES[op.args[0] % len(_SQL_ERROR_TEMPLATES)]
        try:
            compile_sql(sql, {"t": table})
        except SqlError as exc:
            if not 0 <= exc.pos <= len(sql):
                raise _Divergence(
                    "sql",
                    f"sql_error: {sql!r} raised SqlError with pos "
                    f"{exc.pos} outside the statement")
            if "^" not in exc.format():
                raise _Divergence(
                    "sql",
                    f"sql_error: {sql!r} error rendering lost its caret: "
                    f"{exc.format()!r}")
            return
        except Exception as exc:  # noqa: BLE001 - divergence reporting
            raise _Divergence(
                "sql",
                f"sql_error: {sql!r} raised {type(exc).__name__} "
                f"({exc}) instead of SqlError")
        raise _Divergence(
            "sql", f"sql_error: {sql!r} compiled without complaint")

    # -- cluster-profile ops -------------------------------------------------

    #: Counter names the cluster accounting check predicts exactly;
    #: everything else under ``cluster.`` (histograms, timings) is
    #: simulated-time flavoured and checked by unit tests instead.
    _CLUSTER_METRICS = ("cluster.queries", "cluster.rpcs",
                        "cluster.bytes_shipped", "cluster.failed_queries")

    def _ensure_cluster(self):
        """Shard the case's table across the case-index cluster grid
        (lazy), plus its gather twin and gather-order oracle columns."""
        if self._sharded is None:
            from ..cluster import ShardedTable, cluster_of

            spec = self.case.spec
            n_nodes, mode, replicate = cluster_grid(self.case.index)
            vbits = companion_bits(spec.bits)
            vseed = int(np.random.default_rng(
                [self.case.seed, self.case.index, 0x51]).integers(0, 2**31))
            vvals = gen_values(vseed, spec.length, vbits)
            self._cluster_nodes = cluster_of(n_nodes)
            self._sharded = ShardedTable.from_arrays(
                {"k": self.oracle.values, "v": vvals},
                key="k", cluster=self._cluster_nodes, mode=mode,
                replicate=("v",) if replicate else (),
            )
            self._twin = self._sharded.gather(allocator=self.allocator)
            # Gather order: shard 0's rows (original relative order),
            # then shard 1's, ... — the global numbering every row
            # result is stated in.
            order = np.concatenate([
                np.nonzero(self._sharded.assignment == s.shard_id)[0]
                for s in self._sharded.shards
            ]).astype(np.int64)
            self._gk = self.oracle.values[order]
            self._gv = vvals[order]
        return self._sharded

    @staticmethod
    def _mask_u64(values: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """``[lo, hi)`` range mask over a plain uint64 array — the
        oracle's clamped semantics, applied to gather-order slices."""
        bounds = orc.clamp_range(lo, hi)
        if bounds is None:
            return np.zeros(values.size, dtype=bool)
        lo, hi = bounds
        mask = values >= np.uint64(lo)
        if hi is not None:
            mask &= values < np.uint64(hi)
        return mask

    @staticmethod
    def _agg_value(spec, cols, mask):
        """One aggregate's exact value over the masked rows."""
        if spec.kind == "count":
            return int(mask.sum())
        vals = cols[spec.column][mask]
        if spec.kind == "sum":
            return int(vals.astype(object).sum()) if vals.size else 0
        if not vals.size:
            return None
        return int(vals.min() if spec.kind == "min" else vals.max())

    @staticmethod
    def _group_expected(specs, sk, sv, mask):
        """Expected group-by-``k`` states under the given spec names."""
        cols = {"k": sk, "v": sv}
        groups: Dict[int, Dict[str, object]] = {}
        for i in np.nonzero(mask)[0].tolist():
            g = groups.setdefault(int(sk[i]), {})
            for spec in specs:
                if spec.kind == "count":
                    g[spec.name] = g.get(spec.name, 0) + 1
                    continue
                v = int(cols[spec.column][i])
                cur = g.get(spec.name)
                if spec.kind == "sum":
                    g[spec.name] = (cur or 0) + v
                elif spec.kind == "min":
                    g[spec.name] = v if cur is None else min(cur, v)
                else:
                    g[spec.name] = v if cur is None else max(cur, v)
        return groups

    def _cluster_shard_payloads(self, q, mask_fn):
        """(shard, predicted result-frame payload) per owning shard.

        Everything is computed oracle-side from the gather-order
        columns — the byte-exact prediction the ``cluster.bytes_shipped``
        check compares against."""
        from ..cluster import expected_result_payload, shipped_specs

        shipped, _ = shipped_specs(q)
        out = []
        for shard in self._sharded.shards:
            if shard.n_rows == 0:
                continue
            sk = self._gk[shard.offset:shard.offset + shard.n_rows]
            sv = self._gv[shard.offset:shard.offset + shard.n_rows]
            cols = {"k": sk, "v": sv}
            mask = mask_fn(sk, sv)
            if q.aggregates and q.group_key is not None:
                payload = expected_result_payload(
                    shard.shard_id, "groups",
                    groups=self._group_expected(shipped, sk, sv, mask))
            elif q.aggregates:
                payload = expected_result_payload(
                    shard.shard_id, "aggregate",
                    aggregates={s.name: self._agg_value(s, cols, mask)
                                for s in shipped})
            else:
                idx = np.nonzero(mask)[0]
                if q.limit_rows is not None:
                    idx = idx[:q.limit_rows]
                payload = expected_result_payload(
                    shard.shard_id, "rows", rows=idx,
                    columns={name: cols[name][idx]
                             for name in (q.projection or ())})
            out.append((shard, payload))
        return out

    def _expected_cluster_delta(self, q, payloads, runs):
        """Exact registry deltas one distributed run (x ``runs``) must
        charge: one rpc + one plan frame + one result frame per owning
        shard, priced from oracle-predicted payloads.  The plan frame is
        rebuilt here from the *logical* plan text (only the scan row
        count differs per shard), independently of the executor."""
        from ..cluster import frame_bytes

        n_cols = len(self._sharded.column_names)
        expected: Dict[str, float] = {"cluster.queries": runs}
        for shard, payload in payloads:
            lines = q.describe().splitlines()
            lines[0] = f"scan {shard.n_rows:,} rows x {n_cols} columns"
            plan = {"op": "execute", "shard": shard.shard_id,
                    "plan": "\n".join(lines)}
            node = shard.node_id
            keys = (
                (f"cluster.rpcs{{node={node}}}", 1),
                (f"cluster.bytes_shipped{{direction=plan,node={node}}}",
                 frame_bytes(plan)),
                (f"cluster.bytes_shipped{{direction=result,node={node}}}",
                 frame_bytes(payload)),
            )
            for key, per_run in keys:
                expected[key] = expected.get(key, 0) + runs * per_run
        return expected

    def _compare_cluster_result(self, op, result, expected, which):
        kind, payload = expected
        if result.kind != kind:
            raise _Divergence(
                "result",
                f"{op.name}: {which} result kind {result.kind!r}, "
                f"expected {kind!r}")
        if kind == "aggregate":
            self._compare(result.aggregates, payload, f"{op.name}.{which}")
        elif kind == "groups":
            self._compare(list(result.groups.items()),
                          sorted(payload.items()), f"{op.name}.{which}")
        else:
            rows, columns = payload
            self._compare(result.rows, rows, f"{op.name}.{which}.rows")
            for name, vals in columns.items():
                self._compare(result.columns[name], vals,
                              f"{op.name}.{which}.{name}")

    def _cluster_zones(self, keys: np.ndarray, key_range,
                       filtered: frozenset) -> _Zones:
        """Zones of one table — a shard, or the gather twin — whose only
        zone map is on ``k``: ``key_range`` is the predicate's ``k``
        range, ``None`` when it cannot prune.  A predicate that also
        reads ``v`` covers nothing (its ``v`` leaf has no zone map)."""
        n_chunks = orc.chunks_for(keys.size)
        none = np.zeros(n_chunks, dtype=bool)
        if key_range is None:
            return _Zones(~none, none, filtered)
        oracle = orc.OracleArray(keys.size, 64)
        oracle.fill(keys)
        candidates, covered = _range_zones(oracle, *key_range)
        return _Zones(candidates,
                      covered if filtered == {"k"} else none, filtered)

    def _check_cluster_decode(self, op, q, res, twin, zones) -> None:
        """Per-column decoded chunks and covered morsels of the
        distributed run (summed over shards) and of the twin, against
        :meth:`_predict_decode` on each table's ``k`` zones."""
        tables = [(res, [self._gk[s.offset:s.offset + s.n_rows]
                         for s in self._sharded.shards if s.n_rows]),
                  (twin, [self._gk])]
        for which, (result, slices) in zip(("distributed", "twin"),
                                           tables):
            decoded: Dict[str, int] = {}
            covered = 0
            for keys in slices:
                _, n, per_column = self._predict_decode(
                    q, self._cluster_zones(keys, *zones))
                covered += n
                for name, chunks in per_column.items():
                    decoded[name] = decoded.get(name, 0) + chunks
            actual = (result.stats.decoded_chunks,
                      result.stats.morsels_covered)
            if actual != (decoded, covered):
                raise _Divergence(
                    "accounting",
                    f"{op.name}: {which} (decoded_chunks, morsels_covered)"
                    f" = {actual}, oracle predicts {(decoded, covered)}")

    def _cluster_differential(self, op, q, tq, mask_fn, fan, dist,
                              runs: int = 1, zones=None):
        """The cluster profile's core check, for one query shape:

        1. the distributed result equals the oracle's answer;
        2. the single-node gather twin equals the oracle's answer;
        3. distributed == twin, field for field (bit-identity);
        4. ``cluster.rpcs`` / ``cluster.bytes_shipped`` deltas equal the
           oracle-predicted wire frames exactly, per node and direction;
        5. given ``zones`` — ``(k range or None, columns the predicate
           reads)`` — both runs decode exactly the oracle-predicted
           chunks per column (:meth:`_check_cluster_decode`).
        """
        sc = self.case.spec.superchunk
        gmask = mask_fn(self._gk, self._gv)
        cols = {"k": self._gk, "v": self._gv}
        if q.aggregates and q.group_key is not None:
            expected = ("groups",
                        self._group_expected(q.aggregates, self._gk,
                                             self._gv, gmask))
        elif q.aggregates:
            expected = ("aggregate",
                        {s.name: self._agg_value(s, cols, gmask)
                         for s in q.aggregates})
        else:
            idx = np.nonzero(gmask)[0].astype(np.int64)
            if q.limit_rows is not None:
                idx = idx[:q.limit_rows]
            expected = ("rows", (idx, {name: cols[name][idx]
                                       for name in (q.projection or ())}))
        payloads = self._cluster_shard_payloads(q, mask_fn)
        exp_delta = self._expected_cluster_delta(q, payloads, runs)

        reg = _obs_registry()
        before = reg.snapshot()
        res = None
        for _ in range(runs):
            plan = q.plan(morsel=sc)
            res = plan.execute(distribution=_DISTRIBUTIONS[dist],
                               fan_out=bool(fan))
            self._compare_cluster_result(op, res, expected, "distributed")
        actual = {
            key: value for key, value in reg.delta(before).items()
            if key.partition("{")[0].partition("__")[0]
            in self._CLUSTER_METRICS
        }
        if actual != exp_delta:
            diff = {key: (exp_delta.get(key, 0), actual.get(key, 0))
                    for key in set(actual) | set(exp_delta)
                    if actual.get(key, 0) != exp_delta.get(key, 0)}
            raise _Divergence(
                "cluster",
                f"{op.name}: wire accounting (expected, actual) = {diff}")

        twin = tq.run(morsel=sc, distribution=_DISTRIBUTIONS[dist])
        self._compare_cluster_result(op, twin, expected, "twin")
        for field in ("aggregates", "groups"):
            if getattr(res, field) != getattr(twin, field):
                raise _Divergence(
                    "cluster",
                    f"{op.name}: distributed {field} "
                    f"{_fmt(getattr(res, field))} != twin "
                    f"{_fmt(getattr(twin, field))}")
        if res.kind == "rows":
            if not np.array_equal(res.rows, twin.rows):
                raise _Divergence(
                    "cluster",
                    f"{op.name}: distributed rows {_fmt(res.rows)} != "
                    f"twin rows {_fmt(twin.rows)}")
            for name in res.columns:
                if not np.array_equal(res.columns[name],
                                      twin.columns[name]):
                    raise _Divergence(
                        "cluster",
                        f"{op.name}: distributed column {name!r} != twin")
        if zones is not None:
            self._check_cluster_decode(op, q, res, twin, zones)
        if (q.limit_rows is None
                and res.stats.rows_matched != twin.stats.rows_matched):
            raise _Divergence(
                "cluster",
                f"{op.name}: distributed matched "
                f"{res.stats.rows_matched} rows, twin matched "
                f"{twin.stats.rows_matched}")

    def _run_cluster_op(self, op: Op) -> None:
        st = self._ensure_cluster()
        name, args = op.name, op.args

        if name in ("cluster_filter_sum", "cluster_filter_count",
                    "cluster_filter_minmax"):
            lo, hi, fan, dist = args
            q = Query(st).where(in_range("k", lo, hi))
            tq = Query(self._twin).where(in_range("k", lo, hi))
            if name == "cluster_filter_sum":
                q.sum("v"), tq.sum("v")
            elif name == "cluster_filter_count":
                q.count(), tq.count()
            else:
                q.min("v").max("v"), tq.min("v").max("v")
            self._cluster_differential(
                op, q, tq, lambda k, v: self._mask_u64(k, lo, hi),
                fan, dist, zones=((lo, hi), _K))

        elif name in ("cluster_and_count", "cluster_or_select"):
            lo1, hi1, lo2, hi2, fan, dist = args
            if name == "cluster_and_count":
                zones = ((lo1, hi1), _KV)
                pred = in_range("k", lo1, hi1) & in_range("v", lo2, hi2)
                q = Query(st).where(pred).count()
                tq = Query(self._twin).where(pred).count()
                mask_fn = lambda k, v: (self._mask_u64(k, lo1, hi1)
                                        & self._mask_u64(v, lo2, hi2))
            else:
                zones = (None, _KV)  # the v leaf cannot prune
                pred = in_range("k", lo1, hi1) | in_range("v", lo2, hi2)
                q = Query(st).where(pred).select("v")
                tq = Query(self._twin).where(pred).select("v")
                mask_fn = lambda k, v: (self._mask_u64(k, lo1, hi1)
                                        | self._mask_u64(v, lo2, hi2))
            self._cluster_differential(op, q, tq, mask_fn, fan, dist,
                                       zones=zones)

        elif name == "cluster_group_sum":
            fan, dist = args
            q = Query(st).group_by("k").sum("v")
            tq = Query(self._twin).group_by("k").sum("v")
            self._cluster_differential(
                op, q, tq, lambda k, v: np.ones(k.size, dtype=bool),
                fan, dist, zones=(None, frozenset()))

        elif name == "cluster_limit":
            lo, hi, limit, fan, dist = args
            pred = in_range("k", lo, hi)
            q = Query(st).where(pred).select("v").limit(limit)
            tq = Query(self._twin).where(pred).select("v").limit(limit)
            self._cluster_differential(
                op, q, tq, lambda k, v: self._mask_u64(k, lo, hi),
                fan, dist)

        elif name == "cluster_sql":
            lo, hi, fan, dist, style = args
            sql = _render_sql_op("sql_filter_sum", (lo, hi, fan, dist),
                                 style)
            try:
                q = bind(_parse_checked(name, sql), {"t": st})
            except SqlError as exc:
                raise _Divergence(
                    "sql", f"{name}: {sql!r} failed to compile against "
                    f"the sharded table: {exc}")
            fluent = Query(st).where(in_range("k", lo, hi)).sum("v")
            if q.describe() != fluent.describe():
                raise _Divergence(
                    "sql",
                    f"{name}: {sql!r} lowered to\n{q.describe()}\n"
                    f"but the fluent twin is\n{fluent.describe()}")
            tq = Query(self._twin).where(in_range("k", lo, hi)).sum("v")
            self._cluster_differential(
                op, q, tq, lambda k, v: self._mask_u64(k, lo, hi),
                fan, dist, zones=((lo, hi), _K))

        elif name == "cluster_migrate_query":
            # A live migration of one shard's value column stepped on a
            # thread while distributed queries fan out from the main
            # thread: results and wire accounting must be untouched.
            lo, hi, pidx, socket, budget = args
            q = Query(st).where(in_range("k", lo, hi)).sum("v")
            tq = Query(self._twin).where(in_range("k", lo, hi)).sum("v")
            shard = next(s for s in st.shards if s.n_rows)
            sv = self._gv[shard.offset:shard.offset + shard.n_rows]
            target = Configuration(self._live_placement(pidx, socket),
                                   bitpack.max_bits_needed(sv))
            migrator = LiveMigrator(
                self._cluster_nodes.node(shard.node_id).allocator)
            migration = migrator.start(
                shard.table.column("v"), target,
                budget=MigrationBudget(max_chunks_per_step=budget))
            errors = []

            def drive() -> None:
                try:
                    while migration.step():
                        pass
                except Exception as exc:  # surfaced after join
                    errors.append(exc)

            stepper = threading.Thread(target=drive,
                                       name="check-cluster-migrate")
            stepper.start()
            try:
                self._cluster_differential(
                    op, q, tq, lambda k, v: self._mask_u64(k, lo, hi),
                    fan=1, dist=0, runs=3, zones=((lo, hi), _K))
            finally:
                stepper.join()
            if errors:
                raise errors[0]
            if migration.state != "completed":
                raise _Divergence(
                    "result",
                    f"{name}: migration ended {migration.state!r} "
                    f"({migration.abort_reason})")

        else:  # pragma: no cover - generator and runner share the table
            raise AssertionError(f"unknown cluster op {name!r}")


#: Statements the frontend must reject with a positioned error; the
#: generator's ``N_SQL_ERROR_TEMPLATES`` mirrors this table's length.
_SQL_ERROR_TEMPLATES = (
    "SELECT",
    "SELECT sum(v) FROM",
    "SELECT sum(v) FROM t WHERE",
    "FROM t SELECT sum(v)",
    "SELECT sum(v) FROM t WHERE 3 < 5",
    "SELECT sum(v) FROM t WHERE wat > 1",
    "SELECT wat FROM t",
    "SELECT v FROM t GROUP BY k",
    "SELECT sum(v) FROM t LIMIT 5",
    "SELECT sum(v) FROM t WHERE k >= 1 ??",
)


def _render_sql_op(name: str, args, style: int) -> str:
    """Render a sql op's statement text in one of the surface styles.

    Styles vary keyword/function case, clause whitespace, a trailing
    semicolon and, on count and min/max statements, the digit in an
    output alias — never the statement's meaning, so every style must
    lower to the identical logical plan.  (The aliases give statements
    that differ only in an identifier's digit, which one parse template
    must never serve for both.)
    """
    def kw(s: str) -> str:
        return s.upper() if style % 2 == 0 else s.lower()

    def rng(column: str, lo: int, hi: int) -> str:
        return (f"{column} >= {lo} {kw('and')} {column} < {hi}")

    if name == "sql_filter_sum":
        select = f"{kw('select')} {kw('sum')}(v)"
        where = rng("k", args[0], args[1])
    elif name == "sql_filter_count":
        select = f"{kw('select')} {kw('count')}(*) {kw('as')} n{style}"
        where = rng("k", args[0], args[1])
    elif name == "sql_filter_minmax":
        select = (f"{kw('select')} {kw('min')}(v) {kw('as')} m{style}, "
                  f"{kw('max')}(v)")
        where = rng("k", args[0], args[1])
    elif name == "sql_and_count":
        select = f"{kw('select')} {kw('count')}(*)"
        where = (f"({rng('k', args[0], args[1])}) {kw('and')} "
                 f"({rng('v', args[2], args[3])})")
    elif name == "sql_or_select":
        select = f"{kw('select')} v"
        where = (f"({rng('k', args[0], args[1])}) {kw('or')} "
                 f"({rng('v', args[2], args[3])})")
    elif name == "sql_group_sum":
        # Half the styles list the group key in the select list (a
        # bindable no-op), the other half omit it.
        if style >= 3:
            select = f"{kw('select')} k, {kw('sum')}(v)"
        else:
            select = f"{kw('select')} {kw('sum')}(v)"
        where = None
    else:  # pragma: no cover - generator and runner share the table
        raise AssertionError(f"unknown sql op {name!r}")

    clauses = [select, f"{kw('from')} t"]
    if where is not None:
        clauses.append(f"{kw('where')} {where}")
    if name == "sql_group_sum":
        clauses.append(f"{kw('group')} {kw('by')} k")
    sep = "\n  " if (style // 2) % 2 else " "
    sql = sep.join(clauses)
    if style >= 4:
        sql += " ;"
    return sql


def run_case(case: Case, n_workers: int = 4) -> Optional[CaseFailure]:
    """Run one case; ``None`` means every check passed."""
    return CaseRunner(case, n_workers=n_workers).run()
