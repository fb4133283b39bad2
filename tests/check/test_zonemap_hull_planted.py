"""Planted bug in the planner's run path: edge runs decoded apart.

On a monotone map, the planner binds a range to one candidate run and
a covered run inside it.  When the two edge runs around the covered
chunks share a morsel, that morsel decodes their hull, as the compare
path (``window_hulls``) and the oracle do.  The plant drops that rule,
so the run path decodes the two edges apart and answers the covered
chunks between them from their synopses, and ``repro check`` must
catch the accounting difference — through the eager scans (one-column
queries) of the mixed profile and through the query profile.
"""

import repro.query.planner as planner
from repro.check import run_check
from repro.check.runner import run_case


def plant_edges_decoded_apart(monkeypatch):
    """The planner never hulls its two edge runs."""
    monkeypatch.setattr(planner, "edges_hulled", lambda *args: False)


class TestEdgesDecodedApart:
    def test_mixed_profile_catches_it(self, monkeypatch):
        self._caught(monkeypatch, "mixed")

    def test_query_profile_catches_it(self, monkeypatch):
        self._caught(monkeypatch, "query")

    @staticmethod
    def _caught(monkeypatch, profile):
        plant_edges_decoded_apart(monkeypatch)
        report = run_check(seed=0, ops=500, profile=profile,
                           max_failures=1, shrink=False)
        assert not report.ok
        failure = report.failures[0]
        assert failure.kind == "accounting"
        monkeypatch.undo()
        assert run_case(failure.case) is None

