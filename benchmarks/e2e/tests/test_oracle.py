"""The oracle against brute-force NumPy, and failure accounting."""

import itertools

import numpy as np

from benchmarks.e2e import data
from benchmarks.e2e.loadgen import Sample, verify
from benchmarks.e2e.workloads import (LIMIT_ROWS, WORKLOADS, Oracle, ops,
                                      same_answer)


def _brute(op, d):
    ts, region, amount = d["ts"], d["region"], d["amount"]
    if op.shape == "nonsarg":
        return (int((amount < op.hi).sum()),)
    mask = ((ts >= op.lo) & (ts < op.hi) if op.shape != "eager_groupby"
            else np.ones(ts.size, bool))
    if op.shape in ("groupby", "eager_groupby"):
        return tuple((int(k), sum(int(v) for v in amount[mask & (region == k)]))
                     for k in np.unique(region[mask]))
    if op.shape in ("rows", "limit"):
        idx = np.nonzero(mask)[0]
        idx = idx[:LIMIT_ROWS] if op.shape == "limit" else idx
        return (idx, ts[idx], amount[idx])
    picked = [int(v) for v in amount[mask]]
    values = {"sum": sum(picked), "count": len(picked),
              "min": min(picked), "max": max(picked)}
    return tuple(values[a] for a in op.aggs)


def test_oracle_matches_brute_force_on_every_workload():
    d = data.generate(11, 20_000)
    oracle = Oracle(d)
    for workload in WORKLOADS:
        for op in itertools.islice(ops(workload, 5), 120):
            assert same_answer(oracle.expected(op), _brute(op, d)), op


def test_verify_counts_errors_and_wrong_answers():
    d = data.generate(11, 20_000)
    oracle = Oracle(d)
    op = next(ops("embedded_write_read", 5))
    right = oracle.expected(op)
    wrong = (right[0] + 1,) + tuple(right[1:])
    samples = [Sample(op, right, None, 1.0, 0.1),
               Sample(op, wrong, None, 2.0, 0.1),
               Sample(op, None, "ServerError: timeout", 3.0, 0.1)]
    assert verify(samples, oracle, reduce=lambda a: a) == [True, False, False]
