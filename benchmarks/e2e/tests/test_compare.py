"""compare.py's verdicts."""

from benchmarks.e2e.compare import compare, exact_differences, verdict


def _entry(value, rounds=None):
    return {"value": value, "rounds": rounds or [value]}


def test_verdicts_follow_direction_and_bound():
    base = _entry(10.0, [9.9, 10.0, 10.1])
    assert verdict(base, _entry(10.5, [10.4, 10.5, 10.6]), "lower", 0.10) == "within"
    assert verdict(base, _entry(11.5, [11.4, 11.5, 11.6]), "lower", 0.10) == "worse"
    assert verdict(base, _entry(8.0, [7.9, 8.0, 8.1]), "lower", 0.10) == "better"
    assert verdict(base, _entry(8.0, [7.9, 8.0, 8.1]), "higher", 0.10) == "worse"
    assert verdict(base, _entry(11.5, [11.4, 11.5, 11.6]), "higher", 0.10) == "better"


def test_wide_rounds_are_unresolved_unless_fully_separated():
    noisy = _entry(10.0, [8.0, 10.0, 12.0])
    assert verdict(noisy, _entry(11.5), "lower", 0.10) == "unresolved"
    assert verdict(noisy, _entry(7.0, [6.5, 7.0, 7.5]), "lower", 0.10) == "better"


def _doc(p50, prune, seed=1):
    from benchmarks.e2e.metrics import END_TO_END

    metrics = {d.name: _entry(1.0) for d in END_TO_END}
    metrics["p50_ms"] = _entry(p50)
    return {"fingerprint": {"seed": seed}, "workloads": {"sql_point": {
        "end_to_end": {"metrics": metrics},
        "per_layer": {"metrics": {"query.prune_ratio": {"value": prune}}}}}}


def test_compare_walks_every_end_to_end_metric_and_exact_counts():
    from benchmarks.e2e.metrics import END_TO_END

    rows = compare(_doc(2.0, 0.99), _doc(3.0, 0.98))
    assert len(rows) == len(END_TO_END)
    assert {r[1]: r[5] for r in rows}["p50_ms"] == "worse"
    assert exact_differences(_doc(2.0, 0.99), _doc(3.0, 0.98)) == [
        ("sql_point", "query.prune_ratio", 0.99, 0.98)]
    assert exact_differences(_doc(2.0, 0.99), _doc(2.0, 0.99)) == []
