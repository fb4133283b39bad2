"""Planted bugs in chunk synopses.

Each plant breaks one thing the synopses rest on — the slice of chunks
they answer and the 58-bit cutoff below which a chunk sum fits its
slot — and ``repro check`` must catch it at its CI budget.  The plants
in the upkeep that keeps a map exact under writes are in
``test_zonemap_upkeep_planted.py``.
"""

import pytest

import repro.core.zonemap as zonemap
import repro.query.planner as planner
from repro.check import run_check
from repro.check.runner import run_case


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
    monkeypatch.setattr(zonemap, "MAX_SUM_BITS", 59)


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
    caught(monkeypatch, profile, ops, ("result", "accounting", "zonemap"))
