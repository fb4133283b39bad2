"""Same seed => byte-identical inputs and statement streams."""

import itertools
import os

import numpy as np

from benchmarks.e2e import data
from benchmarks.e2e.workloads import WORKLOADS, ops, sql_text


def test_inputs_repeat_byte_for_byte(tmp_path):
    dirs = []
    for name in ("a", "b"):
        directory = tmp_path / name
        directory.mkdir()
        data.save(data.generate(7, 5000), str(directory))
        dirs.append(directory)
    for column in data.COLUMNS:
        first, second = ((d / f"{column}.npy").read_bytes() for d in dirs)
        assert first == second
    loaded = data.load(str(dirs[0]))
    assert np.all(np.diff(loaded["ts"].astype(np.int64)) >= 0)
    assert int(loaded["region"].max()) < data.REGIONS
    assert int(loaded["amount"].max()) < 1 << data.AMOUNT_BITS


def test_inputs_differ_across_seeds():
    assert not np.array_equal(data.generate(1, 1000)["amount"],
                              data.generate(2, 1000)["amount"])


def test_statement_streams_repeat_and_depend_on_seed_and_client():
    def head(workload, seed, client):
        return list(itertools.islice(ops(workload, seed, client), 300))

    for workload in WORKLOADS:
        assert head(workload, 3, 0) == head(workload, 3, 0)
        assert head(workload, 3, 0) != head(workload, 4, 0)
        assert head(workload, 3, 0) != head(workload, 3, 1)
    texts = [sql_text(op) for op in head("sql_mixed", 3, 0)]
    assert texts == [sql_text(op) for op in head("sql_mixed", 3, 0)]
    assert len(set(texts)) > 250


def test_mixes_draw_every_class():
    from benchmarks.e2e.workloads import EMBEDDED_CLASSES, SQL_CLASSES

    drawn = {op.klass
             for op in itertools.islice(ops("sql_mixed", 1), 4000)}
    assert drawn == set(SQL_CLASSES)
    drawn = {op.klass for op in
             itertools.islice(ops("embedded_write_read", 1), 4000)}
    assert drawn == set(EMBEDDED_CLASSES)
