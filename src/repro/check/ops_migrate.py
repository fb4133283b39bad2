"""Migration ops: online placement and width changes (live profile) and
codec re-encodings (codec profile), through :mod:`repro.live`.

A migration either steps op by op with a full storage check between
steps (a reader must never observe a half-migrated generation), or
steps on a second thread while full-array sums race it on this one.
It must complete, land exactly on its target layout and leave every
counter as the oracle predicts.  ``migrate_abort`` narrows below the
data's width and expects a clean abort with no ledger leak.
"""

from __future__ import annotations

import threading
from typing import Callable

import numpy as np

from ..adapt.selector import Configuration
from ..core import bitpack
from ..core.map_api import sum_range
from ..core.placement import Placement
from ..live import LiveMigrator, MigrationBudget
from . import oracle as orc
from .generator import CODEC_TARGETS, PLACEMENTS
from .runner import Divergence


def placement_for(placement_idx: int, socket: int) -> Placement:
    name = PLACEMENTS[placement_idx % len(PLACEMENTS)]
    if name == "pinned":
        return Placement.single_socket(socket)
    if name == "interleaved":
        return Placement.interleaved()
    if name == "replicated":
        return Placement.replicated()
    return Placement.os_default()


def race(migration, read: Callable[[], None]) -> None:
    """Step ``migration`` to its end on a second thread while ``read()``
    runs on this one; re-raise whatever the stepper raised."""
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
        read()
    finally:
        stepper.join()
    if errors:
        raise errors[0]


def check_completed(name: str, migration) -> None:
    if migration.state != "completed":
        raise Divergence(
            "result",
            f"{name}: migration ended {migration.state!r} "
            f"({migration.abort_reason})")


def _migrator(r) -> LiveMigrator:
    # Shared across a case's ops, so in-flight detection is real.
    if r.migrator is None:
        r.migrator = LiveMigrator(r.allocator)
    return r.migrator


def _needed_bits(r) -> int:
    values = r.oracle.values
    return bitpack.max_bits_needed(values) if values.size else 1


def _step_checked(r, migration, target_bits: int, vseed: int = 0,
                  n_writes: int = 0):
    """Step ``migration`` to its end with a storage check between every
    step.  With ``n_writes`` (dual-write coverage) it also makes up to
    that many point writes on the way, and one ``scatter_many`` batch
    and, for odd ``vseed``, a ``fill`` while the migration still runs,
    so each reaches its mirror.  Returns ``(point, bulk)`` elements
    written."""
    a, o, length = r.array, r.oracle, r.spec.length
    rng = np.random.default_rng(vseed)
    bulk_rng = np.random.default_rng([vseed, 1])
    bulk_ops = (["scatter", "fill"][:1 + vseed % 2]
                if n_writes and length else [])
    writes = bulk = 0
    while True:
        alive = migration.step()
        # Written values must fit both the live generation and the
        # migration target.
        high = (1 << min(a.bits, target_bits)) - 1
        if writes < n_writes and length:
            idx = int(rng.integers(0, length))
            value = int(rng.integers(0, high, dtype=np.uint64,
                                     endpoint=True))
            a[idx] = value
            o.set(idx, value)
            writes += 1
        if alive and bulk_ops:
            if bulk_ops.pop(0) == "scatter":
                k = int(bulk_rng.integers(1, min(length, 64) + 1))
                idx = bulk_rng.choice(length, size=k,
                                      replace=False).astype(np.int64)
                values = bulk_rng.integers(0, high, size=k,
                                           dtype=np.uint64, endpoint=True)
                a.scatter_many(idx, values)
                o.scatter(idx, values)
            else:
                values = bulk_rng.integers(0, high, size=length,
                                           dtype=np.uint64, endpoint=True)
                a.fill(values)
                o.fill(values)
            bulk += values.size
        r.check_storage()
        if not alive:
            return writes, bulk


def _migrate(r, op, before) -> None:
    """``migrate`` / ``migrate_with_writes`` / ``migrate_during_scan``
    (placement and width) and ``codec_encode`` /
    ``codec_encode_during_scan`` (layout)."""
    a, o, length, sc = r.array, r.oracle, r.spec.length, r.spec.superchunk
    if op.name.startswith("codec_"):
        cidx, pidx, socket, budget = op.args
        writes = ()
        target = Configuration(placement_for(pidx, socket), _needed_bits(r),
                               CODEC_TARGETS[cidx % len(CODEC_TARGETS)])
    else:
        pidx, socket, raw_bits, budget, *writes = op.args
        target = Configuration(placement_for(pidx, socket),
                               max(raw_bits, _needed_bits(r)))
    migration = _migrator(r).start(
        a, target, budget=MigrationBudget(max_chunks_per_step=budget))
    if op.name.endswith("_during_scan"):
        expected_sum = o.sum_range(0, length)

        def scan() -> None:
            for _ in range(3):
                r.compare(sum_range(a, 0, length, superchunk=sc),
                          expected_sum, op.name)

        race(migration, scan)
        made, bulk, chunks = 0, 0, 3 * orc.span_chunks(0, length, sc)
    else:
        (made, bulk), chunks = _step_checked(r, migration, target.bits,
                                             *writes), 0
    check_completed(op.name, migration)
    codec = getattr(a.generation, "codec", "bitpack")
    # A codec target's width is advisory: each codec picks its own.
    bits = a.bits if target.codec == "bitpack" else target.bits
    if Configuration(a.placement, bits, codec) != target:
        raise Divergence(
            "result",
            f"{op.name}: array is {codec} {a.bits}b "
            f"{a.placement.describe()} after migrating to "
            f"{target.describe()}")
    # The oracle's (iterator) accounting model follows the decoded-value
    # width, not the encoded payload width.
    o.bits = a.value_bits
    r.check_decoded(before, chunks, op.name, inits=made,
                    bulk_written=bulk)


def _migrate_abort(r, op, before) -> None:
    pidx, socket = op.args
    a = r.array
    needed = _needed_bits(r)
    if needed <= 1:
        return  # cannot narrow below 1 bit; nothing to abort
    ledger = r.allocator.ledger
    sockets = range(r.machine.n_sockets)
    free_before = [ledger.free_bytes(s) for s in sockets]
    bits_before = a.bits
    migration = _migrator(r).start(
        a, Configuration(placement_for(pidx, socket), needed - 1))
    while migration.step():
        pass
    if migration.state != "aborted":
        raise Divergence(
            "result",
            f"{op.name}: narrowing to {needed - 1}b ended "
            f"{migration.state!r}, expected aborted")
    if a.bits != bits_before:
        raise Divergence(
            "result",
            f"{op.name}: aborted migration changed width "
            f"{bits_before} -> {a.bits}")
    free_after = [ledger.free_bytes(s) for s in sockets]
    if free_after != free_before:
        raise Divergence(
            "result",
            f"{op.name}: aborted migration leaked ledger bytes "
            f"{free_before} -> {free_after}")
    r.check_stats(before, {}, op.name)


HANDLERS = {
    "migrate": _migrate,
    "migrate_with_writes": _migrate,
    "migrate_during_scan": _migrate,
    "migrate_abort": _migrate_abort,
    "codec_encode": _migrate,
    "codec_encode_during_scan": _migrate,
}
