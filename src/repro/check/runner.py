"""Case execution: smart-array stack vs. oracle, plus standing invariants.

The runner replays one generated :class:`~repro.check.generator.Case`
against a freshly allocated smart array and an
:class:`~repro.check.oracle.OracleArray`, comparing:

* **results** — every operator's return value against the oracle's
  independent answer;
* **storage** — after every op, each replica's packed words decode to
  exactly the oracle's contents (all replicas identical, writes landed
  everywhere);
* **zone maps** — the case array carries a zone map from the start,
  and after every op its per-chunk min, max and sum, width and
  monotone flag equal the oracle's, however the op wrote or migrated
  the array;
* **accounting** — the deltas of ``chunk_unpacks``, scalar gets/inits,
  bulk element counters, and the summed ``replica_read_elements`` match
  the oracle's predicted decode work for the op, under every placement,
  superchunk size, and pool mode.

This module is the core: case setup, counter snapshots, the invariants
above, obs tracing and the run loop.  Each op name has exactly one
handler in :data:`HANDLERS`, collected from the op-family modules
:mod:`~repro.check.ops_array` (writes, reads, scans, iterators, zone
maps, parallel scans), :mod:`~repro.check.ops_query` (query and SQL),
:mod:`~repro.check.ops_migrate` (live and codec migrations) and
:mod:`~repro.check.ops_cluster` (sharded tables).  A handler is called
as ``handler(runner, op, before)`` with the counter snapshot taken just
before the op.

Any mismatch (or unexpected exception) is returned as a
:class:`CaseFailure` naming the op; the shrinker minimizes from there.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from ..core import bitpack, codecs
from ..core.allocate import allocate
from ..core.table import SmartTable
from ..numa.allocator import NumaAllocator
from ..numa.topology import machine_2x8_haswell
from ..obs.registry import registry as _obs_registry
from ..obs.trace import TRACER, tracing
from ..runtime.workers import WorkerPool
from . import oracle as orc
from .generator import (Case, Op, SUM_CUTOFF_WIDTHS, companion_width,
                        gen_saturated, gen_values)


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


class Divergence(Exception):
    """Raised by handlers and checks to abort the op with a failure."""

    def __init__(self, kind: str, detail: str) -> None:
        super().__init__(detail)
        self.kind = kind
        self.detail = detail


def fmt(value) -> str:
    text = repr(value)
    return text if len(text) <= 200 else text[:200] + "..."


class CaseRunner:
    """Executes one case, op by op, with differential + invariant checks."""

    def __init__(self, case: Case, n_workers: int = 4) -> None:
        self.case = case
        self.spec = spec = case.spec
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
        # Query-op state: a two-column table pairing the case's array
        # ("k") with a deterministically derived value column ("v").
        self._table: Optional[SmartTable] = None
        self.companion = None
        self.oracle_v: Optional[orc.OracleArray] = None
        #: The value column's width (:func:`companion_width`).
        self.vbits = companion_width(case.seed, case.index, spec.bits)
        # The obs profile runs every op inside a trace span and
        # cross-checks the registry / per-span counter deltas against
        # the same oracle-predicted accounting `check_stats` enforces.
        self._obs = case.profile == "obs"
        # The live and codec profiles migrate the array between
        # placements, widths and layouts; generations come and go, so
        # replica-read accounting sums the registry.
        self._live = case.profile == "live"
        self._migrating = self._live or case.profile == "codec"
        # Family state, built lazily by its op module: the live
        # migrator (ops_migrate) and the sharded table (ops_cluster).
        self.migrator = None
        self.cluster = None

    # -- helpers -----------------------------------------------------------

    def pool(self) -> WorkerPool:
        if self._pool is None:
            self._pool = WorkerPool(self.machine, n_workers=self.n_workers,
                                    mode=self.spec.pool_mode)
        return self._pool

    def encoded(self) -> bool:
        """Whether the array currently has a dict/rle/delta layout."""
        return getattr(self.array.generation, "codec", "bitpack") \
            != "bitpack"

    def _replica_reads_total(self, arr) -> int:
        # Under the live and codec profiles the replica *count* changes
        # across migrations (e.g. replicated -> pinned drops a counter
        # from the array's current view), so total decode accounting
        # sums every replica counter the array ever registered.
        if self._migrating:
            return int(sum(_obs_registry().values(
                "core.replica_read_elements", array=arr.stats.array_label
            ).values()))
        return sum(arr.replica_read_elements)

    def snapshot(self) -> Dict[str, int]:
        s = self.array.stats
        snap = {
            "unpacks": s.chunk_unpacks,
            "gets": s.scalar_gets,
            "inits": s.scalar_inits,
            "bulk_read": s.bulk_elements_read,
            "bulk_written": s.bulk_elements_written,
            "replica_reads": self._replica_reads_total(self.array),
        }
        if self.companion is not None:
            cs = self.companion.stats
            snap["v_unpacks"] = cs.chunk_unpacks
            snap["v_replica_reads"] = self._replica_reads_total(
                self.companion
            )
            snap["v_bulk_written"] = cs.bulk_elements_written
        return snap

    def check_stats(self, before: Dict[str, int],
                    expected_delta: Dict[str, int], what: str) -> None:
        after = self.snapshot()
        actual = {k: after[k] - before[k] for k in before}
        expected = {k: expected_delta.get(k, 0) for k in before}
        if actual != expected:
            diff = {k: (expected[k], actual[k]) for k in actual
                    if actual[k] != expected[k]}
            raise Divergence(
                "accounting",
                f"{what}: counter deltas (expected, actual) = {diff}",
            )

    def check_decoded(self, before: Dict[str, int], chunks: int,
                      what: str, **deltas: int) -> None:
        """:meth:`check_stats` for an op that decodes ``chunks`` whole
        chunks of the case array (64 replica reads each), plus any other
        counter ``deltas``."""
        self.check_stats(before, {"unpacks": chunks,
                                  "replica_reads": 64 * chunks, **deltas},
                         what)

    def compare(self, actual, expected, what: str) -> None:
        if isinstance(actual, np.ndarray) or isinstance(expected, np.ndarray):
            ok = np.array_equal(np.asarray(actual), np.asarray(expected))
        else:
            ok = actual == expected
        if not ok:
            raise Divergence(
                "result",
                f"{what}: stack={fmt(actual)} oracle={fmt(expected)}",
            )

    def check_storage(self) -> None:
        # Decode at the generation's width, not the spec's: live
        # migrations re-compress, and a reader must only ever see a
        # (buffer, bits) pair from one consistent generation — which is
        # exactly what resolving both through one generation object
        # checks.
        gen = self.array.generation
        encoded = self.encoded()
        for i, buf in enumerate(gen.buffers):
            if encoded:
                decoded = codecs.decode_words(buf, gen.meta)
            else:
                decoded = bitpack.unpack_array(buf, self.spec.length,
                                               gen.bits)
            if not np.array_equal(decoded, self.oracle.values):
                bad = np.nonzero(decoded != self.oracle.values)[0][:5]
                raise Divergence(
                    "storage",
                    f"replica {i} decodes wrong at indices {bad.tolist()}: "
                    f"{decoded[bad].tolist()} != oracle "
                    f"{self.oracle.values[bad].tolist()}",
                )

    def index(self, table: SmartTable, name: str,
              oracle: orc.OracleArray, prefix: str = "") -> None:
        """Give ``table``'s column ``name``, modelled by ``oracle``, its
        zone map, charged at the oracle-predicted cost of one decode of
        every chunk (counted under the snapshot keys ``prefix +
        "unpacks"`` and ``prefix + "replica_reads"``)."""
        before = self.snapshot()
        table.build_zone_map(name, superchunk=self.spec.superchunk)
        chunks = orc.chunks_for(self.spec.length)
        self.check_stats(before, {prefix + "unpacks": chunks,
                                  prefix + "replica_reads": 64 * chunks},
                         f"build_zone_map({name})")
        oracle.mapped = True

    def _check_zonemap(self) -> None:
        """The case array's zone map against the oracle: chunk bounds,
        width, sums (offered while the values are at most ``SUM_BITS``
        wide) and monotone flag — and it must not have gone missing."""
        zm, o = self.array.zone_map, self.oracle
        if zm is None:
            if o.mapped:
                raise Divergence("zonemap", "the array lost its zone map")
            return
        mins, maxs = o.chunk_min_max()
        bits = orc.bits_needed(o.values)
        expected = {
            "mins": mins.tolist(), "maxs": maxs.tolist(),
            "sums": o.chunk_sums() if bits <= orc.SUM_BITS else None,
            "bits": bits,
            "monotone": bool((mins[1:] >= mins[:-1]).all()
                             and (maxs[1:] >= maxs[:-1]).all()),
        }
        for field, want in expected.items():
            got = getattr(zm, field)
            if isinstance(got, np.ndarray):
                got = got.tolist()
            if got != want:
                raise Divergence(
                    "zonemap",
                    f"zone map {field} {fmt(got)} != oracle {fmt(want)}")

    def companion_values(self) -> np.ndarray:
        """The value column ("v") query and cluster ops pair with the
        case array: a pure function of the case — at the top of the
        domain for the widths that straddle the chunk-sum cutoff."""
        vseed = int(np.random.default_rng(
            [self.case.seed, self.case.index, 0x51]).integers(0, 2**31))
        draw = (gen_saturated if self.vbits in SUM_CUTOFF_WIDTHS.values()
                else gen_values)
        return draw(vseed, self.spec.length, self.vbits)

    def query_table(self) -> SmartTable:
        """Build the two-column table on first query op (lazy: cases
        without query ops never pay for the companion column)."""
        if self._table is None:
            values = self.companion_values()
            self.companion = allocate(self.spec.length, bits=self.vbits,
                                      allocator=self.allocator,
                                      **self._flags)
            self.companion.fill(values)
            self.oracle_v = orc.OracleArray(self.spec.length, self.vbits)
            self.oracle_v.fill(values)
            self._table = SmartTable({"k": self.array,
                                      "v": self.companion})
            self.index(self._table, "v", self.oracle_v, prefix="v_")
        return self._table

    def fit_current(self, values):
        """Mask generated write values to the array's *current* width.

        Generated values target the spec's width; under the live profile
        a migration may have narrowed the array since, and writes must
        fit the live generation (the stack raises ValueOverflowError
        otherwise, by design)."""
        if not self._live or self.array.bits >= self.spec.bits:
            return values
        mask = (1 << self.array.bits) - 1
        if isinstance(values, np.ndarray):
            return values & np.uint64(mask)
        return int(values) & mask

    # -- op execution ------------------------------------------------------

    def run(self) -> Optional[CaseFailure]:
        if self._obs:
            with tracing():
                return self._run_ops()
        return self._run_ops()

    def _run_ops(self) -> Optional[CaseFailure]:
        for i, op in enumerate(self.case.ops):
            try:
                if i == 0:
                    # Indexed before its first op, so every write has a
                    # map to keep exact.
                    self.index(SmartTable({"k": self.array}), "k",
                               self.oracle)
                if self._obs:
                    self._run_op_traced(i, op)
                else:
                    self._run_op(op)
                self.check_storage()
                self._check_zonemap()
            except Divergence as d:
                return CaseFailure(self.case, i, op, d.kind, d.detail)
            except Exception:
                tb = traceback.format_exc().strip().splitlines()
                return CaseFailure(self.case, i, op, "exception",
                                   " | ".join(tb[-3:]))
        return None

    def _run_op(self, op: Op) -> None:
        HANDLERS[op.name](self, op, self.snapshot())

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
        before = self.snapshot()
        with TRACER.span("check.op", op=op.name, index=i) as span:
            self._run_op(op)
        after = self.snapshot()
        # 1. The span's captured registry deltas must equal the stats
        #    deltas the oracle checks validated — a lost update in the
        #    trace-capture path (or a double count only visible through
        #    the registry) diverges here.
        for key in before:
            name, companion = self._OBS_METRICS[key]
            label = (self.companion if companion
                     else self.array).stats.array_label
            span_delta = int(span.counter_total(name, array=label))
            stats_delta = after[key] - before[key]
            if span_delta != stats_delta:
                raise Divergence(
                    "obs",
                    f"{op.name}: span delta for {name}[array={label}] = "
                    f"{span_delta}, stats delta = {stats_delta}")
        # 2. The registry's absolute values must agree with the
        #    AccessStats view — catches registry bookkeeping bugs
        #    (e.g. a finalizer dropping a live array's counters, which
        #    would make value() read a fresh zeroed counter).
        reg = _obs_registry()
        arrays = [self.array]
        if self.companion is not None:
            arrays.append(self.companion)
        for arr in arrays:
            label = arr.stats.array_label
            snap = arr.stats.snapshot()
            for field, expected in snap.items():
                got = int(reg.value(f"core.{field}", array=label))
                if got != expected:
                    raise Divergence(
                        "obs",
                        f"{op.name}: registry core.{field}[array={label}]"
                        f" = {got}, AccessStats reads {expected}")
            reg_reads = sum(
                int(v) for v in reg.values(
                    "core.replica_read_elements", array=label
                ).values()
            )
            if reg_reads != sum(arr.replica_read_elements):
                raise Divergence(
                    "obs",
                    f"{op.name}: registry replica reads {reg_reads} != "
                    f"array view {sum(arr.replica_read_elements)}")


def run_case(case: Case, n_workers: int = 4) -> Optional[CaseFailure]:
    """Run one case; ``None`` means every check passed."""
    return CaseRunner(case, n_workers=n_workers).run()


# The op families import the core above, so they load after it.
from . import ops_array, ops_cluster, ops_migrate, ops_query  # noqa: E402

#: Op name -> its one handler, across every profile's op table.
HANDLERS: Dict[str, Callable] = {
    **ops_array.HANDLERS,
    **ops_query.HANDLERS,
    **ops_migrate.HANDLERS,
    **ops_cluster.HANDLERS,
}
