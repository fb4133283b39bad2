"""The write-epoch contract smartcheck's zone-map checks rest on.

Every in-place write bumps ``SmartArray.write_epoch``; a zone map built
at an older epoch is stale.  ``SmartTable.zone_map`` drops such a map,
and the runner rebuilds its standalone map on the same rule.  A write
path that forgets the bump must therefore be caught: by the ``query``
profile as a wrong answer from a stale map, and by the ``mixed``
profile as zone bounds that drifted from the data.
"""

import pytest

from repro.check import run_check
from repro.core.smart_array import SmartArray


@pytest.fixture
def scatter_skips_epoch(monkeypatch):
    real = SmartArray.scatter_many

    def scatter_many(self, indices, values):
        epoch = self._write_epoch
        real(self, indices, values)
        self._write_epoch = epoch

    monkeypatch.setattr(SmartArray, "scatter_many", scatter_many)


@pytest.mark.parametrize("profile, kind", [("query", "result"),
                                           ("mixed", "zonemap")])
def test_scatter_without_epoch_bump_is_caught(scatter_skips_epoch, profile,
                                              kind):
    report = run_check(seed=0, ops=500, profile=profile, max_failures=1,
                       shrink=False)
    assert not report.ok
    assert report.failures[0].kind == kind, report.format()

