"""Planted bugs in the upkeep that keeps a column's zone map exact
under writes.

Every write replaces the column's map with one exact for the new
contents, and a migration, which preserves values, keeps it.  Each plant
breaks one part of that, and ``repro check`` must catch it at seed 0
with its CI budget: the runner compares the case array's map with the
oracle after every op, and query plans prune and answer from it.
"""

import numpy as np
import pytest

from repro.check import run_check
from repro.check.runner import run_case
from repro.core.allocate import allocate
from repro.core.smart_array import SmartArray
from repro.core.table import SmartTable
from repro.core.zonemap import ZoneMap
from repro.query import Query, col


def plant_write_skips_upkeep(monkeypatch, method):
    """``method`` writes but leaves the map of the old contents."""
    write = getattr(SmartArray, method)

    def planted(self, *args):
        zm = self.zone_map
        write(self, *args)
        self.zone_map = zm

    monkeypatch.setattr(SmartArray, method, planted)


def plant_stale_sums(monkeypatch):
    """Upkeep refreshes the written chunks' min and max, not their
    sums."""
    rewritten = ZoneMap.rewritten

    def planted(self, gen, chunks):
        new = rewritten(self, gen, chunks)
        return ZoneMap(self.array, new.mins, new.maxs, self._sums)

    monkeypatch.setattr(ZoneMap, "rewritten", planted)


def plant_widen_only(monkeypatch):
    """Upkeep only widens a written chunk's bounds, as if a store could
    only extend them."""
    rewritten = ZoneMap.rewritten

    def planted(self, gen, chunks):
        new = rewritten(self, gen, chunks)
        return ZoneMap(self.array, np.minimum(self.mins, new.mins),
                       np.maximum(self.maxs, new.maxs), new._sums)

    monkeypatch.setattr(ZoneMap, "rewritten", planted)


def plant_commit_drops_map(monkeypatch):
    """A migration commit drops the array's map."""
    install = SmartArray._install_generation

    def planted(self, new_gen, reclaim=None):
        self.zone_map = None
        return install(self, new_gen, reclaim)

    monkeypatch.setattr(SmartArray, "_install_generation", planted)


PLANTS = {
    "scatter_skips_upkeep":
        lambda mp: plant_write_skips_upkeep(mp, "scatter_many"),
    "init_skips_upkeep": lambda mp: plant_write_skips_upkeep(mp, "init"),
    "stale_sums": plant_stale_sums,
    "widen_only": plant_widen_only,
}


def caught(monkeypatch, profile, ops):
    report = run_check(seed=0, ops=ops, profile=profile, max_failures=1,
                       shrink=False)
    assert not report.ok
    failure = report.failures[0]
    assert failure.kind == "zonemap", report.format()
    monkeypatch.undo()
    assert run_case(failure.case) is None


@pytest.mark.parametrize("profile, ops", [("mixed", 500), ("query", 500)])
@pytest.mark.parametrize("plant", sorted(PLANTS))
def test_upkeep_plant_is_caught(monkeypatch, plant, profile, ops):
    PLANTS[plant](monkeypatch)
    caught(monkeypatch, profile, ops)


def test_commit_that_drops_the_map_is_caught(monkeypatch):
    plant_commit_drops_map(monkeypatch)
    caught(monkeypatch, "live", 300)


def test_scatter_that_skips_upkeep_answers_wrong(monkeypatch):
    # Chunk 0 gains a match for ts >= 4000; the map of the old contents
    # prunes it and the count misses the row.
    def count_after_scatter():
        table = SmartTable.from_arrays(
            {"ts": np.arange(4096, dtype=np.uint64)})
        table["ts"].scatter_many(np.array([10]),
                                 np.array([4090], dtype=np.uint64))
        return Query(table).where(col("ts") >= 4000).count().run().scalar()

    assert count_after_scatter() == 97
    plant_write_skips_upkeep(monkeypatch, "scatter_many")
    assert count_after_scatter() == 96


def test_widened_bounds_answer_a_wrong_min(monkeypatch):
    # A chunk of all 100s; write 5 into it, then 100 back.  Widened
    # bounds would still answer MIN = 5 from the synopsis.
    values = np.full(64 * 4, 100, dtype=np.uint64)
    values[64:] = 200

    def min_after_writes():
        table = SmartTable.from_arrays({"v": values})
        table["v"][3] = 5
        table["v"][3] = 100
        result = Query(table).min("v").run()
        assert result.stats.decoded_chunks == {"v": 0}
        return result.scalar()

    assert min_after_writes() == 100
    plant_widen_only(monkeypatch)
    assert min_after_writes() == 5


def test_bare_arrays_carry_no_map():
    array = allocate(100, bits=8, values=np.arange(100))
    array[3] = 7
    array.scatter_many(np.array([1]), np.array([2], dtype=np.uint64))
    array.fill(np.zeros(100, dtype=np.uint64))
    assert array.zone_map is None
