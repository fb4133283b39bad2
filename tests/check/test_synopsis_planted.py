"""Planted bugs in chunk synopses.

Each plant breaks one thing the synopses rest on — the slice of chunks
they answer, the 58-bit cutoff below which a chunk sum fits its slot,
and the write epoch that retires a map once its column changes — and
``repro check`` must catch it at its CI budget.  Where the fuzz cannot
reach a plant the way it is described, a unit case pins it as well.
"""

import numpy as np
import pytest

import repro.query.planner as planner
from repro.check import run_check
from repro.check.runner import run_case
from repro.core.allocate import allocate
from repro.core.smart_array import SmartArray
from repro.core.table import SmartTable
from repro.core.zonemap import ZoneMap
from repro.query import Query, in_range


def plant_short_synopsis_run(monkeypatch):
    """The synopsis run stops one chunk short of the covered run: the
    chunk at its edge is answered by neither the synopses nor a kernel."""
    bind = planner._bind

    def planted(query, shape, prune):
        binding = bind(query, shape, prune)
        if isinstance(binding.synopsis, tuple) and binding.synopsis_chunks:
            first, stop = binding.synopsis
            binding = binding._replace(synopsis=(first, stop - 1))
        return binding

    monkeypatch.setattr(planner, "_bind", planted)


def plant_sums_at_59_bits(monkeypatch):
    """Keep chunk sums for a 59-bit zone too, in a 64-bit slot: a chunk
    of large values wraps."""
    pack = ZoneMap._from_chunks.__func__

    def planted(cls, array, mins, maxs, sums, write_epoch, allocator):
        zm = pack(cls, array, mins, maxs, sums, write_epoch, allocator)
        if zm.sums is None and zm.mins.bits == 59:
            zm.sums = allocate(mins.size, bits=64, allocator=allocator)
            if mins.size:
                zm.sums.fill(sums)
        return zm

    monkeypatch.setattr(ZoneMap, "_from_chunks", classmethod(planted))


def plant_scatter_keeps_epoch(monkeypatch):
    """``scatter_many`` writes but leaves ``write_epoch`` alone, so a
    map of the old contents stays current."""
    scatter = SmartArray.scatter_many

    def planted(self, indices, values):
        epoch = self._write_epoch
        scatter(self, indices, values)
        self._write_epoch = epoch

    monkeypatch.setattr(SmartArray, "scatter_many", planted)


def caught(monkeypatch, profile, ops, kinds=("result", "accounting")):
    report = run_check(seed=0, ops=ops, profile=profile, max_failures=1,
                       shrink=False)
    assert not report.ok
    failure = report.failures[0]
    assert failure.kind in kinds, report.format()
    monkeypatch.undo()
    assert run_case(failure.case) is None


@pytest.mark.parametrize("profile, ops", [("query", 500), ("cluster", 400)])
def test_short_synopsis_run_is_caught(monkeypatch, profile, ops):
    plant_short_synopsis_run(monkeypatch)
    caught(monkeypatch, profile, ops)


@pytest.mark.parametrize("profile, ops", [("query", 500), ("cluster", 400)])
def test_sums_kept_at_59_bits_are_caught(monkeypatch, profile, ops):
    plant_sums_at_59_bits(monkeypatch)
    caught(monkeypatch, profile, ops)


def test_scatter_without_epoch_bump_is_caught(monkeypatch):
    plant_scatter_keeps_epoch(monkeypatch)
    caught(monkeypatch, "query", 500)


def test_scatter_without_epoch_bump_serves_a_stale_sum(monkeypatch):
    # The query profile writes only its key column, whose map answers
    # counts; pin the same plant on a column whose chunk sums answer.
    rng = np.random.default_rng(0)
    n = 64 * 200
    values = {"ts": np.arange(n, dtype=np.uint64),
              "amount": rng.integers(0, 1 << 20, n).astype(np.uint64)}
    rows, new = np.array([700, 9000], dtype=np.int64), \
        np.array([1, 2], dtype=np.uint64)
    expected = values["amount"].copy()
    expected[rows] = new

    def run(table):
        table["amount"].scatter_many(rows, new)
        return Query(table).where(in_range("ts", 64, n - 64)) \
            .sum("amount").run().scalar()

    want = int(expected[64:n - 64].astype(object).sum())
    assert run(SmartTable.from_arrays(dict(values))) == want
    plant_scatter_keeps_epoch(monkeypatch)
    assert run(SmartTable.from_arrays(dict(values))) != want
