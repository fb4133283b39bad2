"""Percentile, median-of-rounds and span self-time arithmetic."""

import numpy as np
import pytest

from benchmarks.e2e import stats


def test_percentile_matches_numpy():
    rng = np.random.default_rng(0)
    samples = rng.random(257).tolist()
    for q in (0, 50, 95, 99, 100):
        assert stats.percentile(samples, q) == pytest.approx(
            float(np.percentile(samples, q)))
    assert stats.percentile([3.0], 95) == 3.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_split_rounds_drops_samples_outside_the_window():
    ends = [9.9, 10.0, 10.9, 11.0, 12.99, 13.0]
    assert stats.split_rounds(ends, 10.0, 1.0, 3) == [[1, 2], [3], [4]]


def test_median_of_rounds_reports_spread_and_samples():
    rounds = [[1.0, 2.0, 3.0], [10.0], [], [4.0, 6.0]]
    got = stats.median_of_rounds(rounds, lambda r: sum(r) / len(r))
    assert got == {"value": 5.0, "min": 2.0, "max": 10.0,
                   "rounds": [2.0, 10.0, 5.0], "samples": 6}
    assert stats.median_of_rounds([[], []], len) is None


def _span(i, name, start, end, parent):
    return {"id": i, "name": name, "start": start, "end": end,
            "parent": parent, "request_id": 0}


def test_self_time_is_span_minus_children():
    spans = [
        _span(0, "request", 0.0, 10.0, None),
        _span(1, "sql.parse", 1.0, 2.0, 0),
        _span(2, "query.execute", 3.0, 9.0, 0),
        _span(3, "query.kernel", 3.5, 8.5, 2),
    ]
    assert stats.self_times(spans) == {0: 3.0, 1: 1.0, 2: 1.0, 3: 5.0}
    by_name = stats.self_time_by_name(spans)
    assert by_name["query.execute"] == [1.0]
    # Stage self times plus the root's own add up to the request.
    assert sum(sum(v) for v in by_name.values()) == 10.0


def test_child_overhanging_its_parent_is_clipped():
    # A synthesized kernel span may end a hair after its parent closed.
    spans = [_span(0, "query.execute", 0.0, 4.0, None),
             _span(1, "query.kernel", 1.0, 5.0, 0)]
    assert stats.self_times(spans)[0] == 1.0
