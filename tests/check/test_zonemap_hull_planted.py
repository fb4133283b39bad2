"""Planted bug in the zone map's run path: edge runs decoded apart.

On a monotone map, ``ZoneMap.count_in_range`` binds a range to one
candidate run and a covered run inside it.  When the two edge runs
around the covered chunks share a superchunk window, the window decodes
their hull, as the compare path (``window_hulls``) and the oracle do.
The plant drops that rule, so the run path decodes the two edges apart,
and ``repro check`` must catch the accounting difference.
"""

import repro.core.zonemap as zonemap
from repro.check import run_check
from repro.check.runner import run_case


def plant_edges_decoded_apart(monkeypatch):
    """The run path never hulls its two edge runs (the planner, which
    imported the rule by name, keeps it)."""
    monkeypatch.setattr(zonemap, "edges_hulled", lambda *args: False)


class TestEdgesDecodedApart:
    def test_mixed_profile_catches_it(self, monkeypatch):
        plant_edges_decoded_apart(monkeypatch)
        report = run_check(seed=0, ops=500, profile="mixed",
                           max_failures=1, shrink=False)
        assert not report.ok
        failure = report.failures[0]
        assert failure.kind == "accounting"
        monkeypatch.undo()
        assert run_case(failure.case) is None
