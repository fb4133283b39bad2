"""Planted bugs for the plan-once mechanisms: literals as runtime kernel
parameters and decoded zone bounds cached on the map that owns them.

Each plants the mistake the mechanism invites — binding ``lits`` in the
wrong order; keeping decoded bounds somewhere that outlives the map —
and requires ``repro check`` to catch it in every profile that can
express it (the ``codec`` and ``cluster`` profiles never write after the
first fill, so a stale bound there is still a true one).
"""

import numpy as np
import pytest

import repro.query.codegen as codegen
from repro.check import run_check
from repro.check.generator import ArraySpec, Case, Op, gen_values
from repro.check.runner import run_case
from repro.core.zonemap import ZoneMap


def plant_wrong_literal_order(monkeypatch):
    """Bind each literal *in front of* the earlier ones while the
    source keeps counting upward: a two-bound range reads its bounds
    swapped, a single bound is unaffected."""

    def misordered(value, lits):
        lits.insert(0, np.uint64(value))
        return f"lits[{len(lits) - 1}]"

    monkeypatch.setattr(codegen, "_literal_u64", misordered)


def plant_stale_zone_bounds(monkeypatch):
    """Cache decoded bounds per *column* instead of per map: a rebuilt
    map — after a write, or after a migration swap dropped the old one —
    keeps answering with the first map's bounds."""
    first = {}
    fresh = ZoneMap.bounds

    def stale(self):
        # The array is kept so its id is never reused by a later case.
        return first.setdefault(id(self.array), (self.array, fresh(self)))[1]

    monkeypatch.setattr(ZoneMap, "bounds", stale)


class TestWrongLiteralOrder:
    @pytest.mark.parametrize("profile,ops", [
        ("query", 400), ("sql", 400), ("codec", 500),
    ])
    def test_twin_comparison_catches_it(self, monkeypatch, profile, ops):
        orig = codegen._literal_u64
        plant_wrong_literal_order(monkeypatch)
        report = run_check(seed=0, ops=ops, profile=profile,
                           max_failures=1, shrink=False)
        assert not report.ok
        assert report.failures[0].kind == "codegen"
        monkeypatch.setattr(codegen, "_literal_u64", orig)
        assert run_case(report.failures[0].case) is None

    @pytest.mark.parametrize("profile,ops", [("query", 500), ("sql", 400)])
    def test_oracle_catches_it_without_the_twin(self, monkeypatch, profile,
                                                ops):
        plant_wrong_literal_order(monkeypatch)
        report = run_check(seed=0, ops=ops, profile=profile,
                           max_failures=1, shrink=False, codegen="on")
        assert not report.ok
        assert report.failures[0].kind == "result"


class TestStaleZoneBounds:
    @pytest.mark.parametrize("profile", ["query", "sql"])
    def test_rebuild_after_write_is_caught(self, monkeypatch, profile):
        fresh = ZoneMap.bounds
        plant_stale_zone_bounds(monkeypatch)
        report = run_check(seed=0, ops=400, profile=profile,
                           max_failures=1, shrink=False)
        assert not report.ok
        assert report.failures[0].kind in ("result", "accounting")
        monkeypatch.setattr(ZoneMap, "bounds", fresh)
        assert run_case(report.failures[0].case) is None

    def test_rebuild_after_migration_swap_is_caught(self, monkeypatch):
        # The live profile draws a query op too rarely to line this up
        # by chance, so the sequence is spelled out: plan against the
        # first map, migrate (the swap bumps the epoch and the table
        # drops the map), refill, plan again on the rebuilt map.
        n, lo = 64 * 40, 1 << 63
        # No value of the first fill reaches ``lo``, values of the
        # second do: the first map prunes every chunk, the rebuilt one
        # must not.
        assert gen_values(1, n, 64).max() < lo <= gen_values(11, n, 64).max()
        query = Op("query_filter_count", (lo, 1 << 64, 0, 0))
        case = Case(
            seed=0, index=0, profile="live",
            spec=ArraySpec(length=n, bits=64, placement="replicated",
                           superchunk=64, pool_mode="serial"),
            ops=(Op("fill", (1,)), query, Op("migrate", (3, 0, 64, 4)),
                 Op("fill", (11,)), query),
        )
        assert run_case(case) is None
        plant_stale_zone_bounds(monkeypatch)
        failure = run_case(case)
        assert failure is not None
        assert failure.kind in ("result", "accounting")
