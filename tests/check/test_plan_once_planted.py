"""Planted bugs for the plan-once mechanisms: literals as runtime kernel
parameters and zone maps read once per plan from the column that owns
them.

Each plants the mistake the mechanism invites — binding ``lits`` in the
wrong order; keeping a map somewhere that outlives the plan —
and requires ``repro check`` to catch it in every profile that can
express it (the ``codec`` and ``cluster`` profiles never write after the
first fill, so a stale bound there is still a true one).
"""

import numpy as np
import pytest

import repro.query.codegen as codegen
import repro.query.planner as planner
from repro.check import run_check
from repro.check.generator import ArraySpec, Case, Op, gen_values
from repro.check.runner import run_case


def plant_wrong_literal_order(monkeypatch):
    """Bind each literal *in front of* the earlier ones while the
    source keeps counting upward: a two-bound range reads its bounds
    swapped, a single bound is unaffected."""

    def misordered(value, lits):
        lits.insert(0, np.uint64(value))
        return f"lits[{len(lits) - 1}]"

    monkeypatch.setattr(codegen, "_literal_u64", misordered)


def plant_stale_zone_bounds(monkeypatch):
    """Cache zone maps per *column* in the planner instead of reading
    each plan's snapshot: a map a write or a migration replaced keeps
    answering with its old bounds."""
    first = {}
    fresh = planner._map_snapshot

    def stale(table, names):
        maps = fresh(table, names)
        # The array is kept so its id is never reused by a later case.
        return {name: first.setdefault(id(table[name]),
                                       (table[name], zm))[1]
                for name, zm in maps.items()}

    monkeypatch.setattr(planner, "_map_snapshot", stale)


class TestWrongLiteralOrder:
    @pytest.mark.parametrize("profile,ops", [
        ("query", 400), ("sql", 400), ("codec", 500),
    ])
    def test_twin_comparison_catches_it(self, monkeypatch, profile, ops):
        # Every query op runs its kernel, so the oracle compare is the
        # witness the compiled-vs-interpreted twin used to be.
        orig = codegen._literal_u64
        plant_wrong_literal_order(monkeypatch)
        report = run_check(seed=0, ops=ops, profile=profile,
                           max_failures=1, shrink=False)
        assert not report.ok
        assert report.failures[0].kind == "result"
        monkeypatch.setattr(codegen, "_literal_u64", orig)
        assert run_case(report.failures[0].case) is None

    @pytest.mark.parametrize("profile,ops", [("query", 500), ("sql", 400)])
    def test_oracle_catches_it_without_the_twin(self, monkeypatch, profile,
                                                ops):
        # Shrinking keeps the divergence: the minimal repro still binds
        # its bounds swapped.
        plant_wrong_literal_order(monkeypatch)
        report = run_check(seed=0, ops=ops, profile=profile,
                           max_failures=1)
        assert not report.ok
        assert report.failures[0].kind == "result"


class TestStaleZoneBounds:
    @pytest.mark.parametrize("profile", ["query", "sql"])
    def test_rebuild_after_write_is_caught(self, monkeypatch, profile):
        plant_stale_zone_bounds(monkeypatch)
        report = run_check(seed=0, ops=400, profile=profile,
                           max_failures=1, shrink=False)
        assert not report.ok
        assert report.failures[0].kind in ("result", "accounting")
        monkeypatch.undo()
        assert run_case(report.failures[0].case) is None

    def test_rebuild_after_migration_swap_is_caught(self, monkeypatch):
        # The live profile draws a query op too rarely to line this up
        # by chance, so the sequence is spelled out: plan against the
        # first map, migrate (the map survives the swap), refill (the
        # fill replaces it), plan again on the new map.
        n, lo = 64 * 40, 1 << 63
        # No value of the first fill reaches ``lo``, values of the
        # second do: the first map prunes every chunk, the new one must
        # not.
        assert gen_values(1, n, 64).max() < lo <= gen_values(11, n, 64).max()
        query = Op("query_filter_count", (lo, 1 << 64, 0))
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
