"""Planted bugs in the native lowering of the query kernels.

Each plant breaks the native scans the way a C kernel plausibly would —
a sum kept in one 64-bit word, a last partial chunk whose padding slots
count as rows, ``<`` lowered as ``<=`` — while the NumPy reference
kernels stay right, so the query profile at its CI budget (seed 0,
500 ops) must report a ``native`` divergence: the two lowerings of one
plan disagree.  The generator's saturated value columns (59, 63 and 64
bits) give morsel sums past 2**64.
"""

import pytest

import repro.query.codegen as codegen
from repro.check import run_check
from repro.check.runner import run_case
from repro.core import native

pytestmark = pytest.mark.skipif(
    native.LIB is None, reason="native scans unavailable (no compiler)")

LOW_WORD = (1 << 64) - 1


def plant_sum_in_one_word(monkeypatch):
    """Every native sum keeps only the low 64 bits of its accumulator."""
    scan_agg, scan_group = native.scan_agg, native.scan_group

    def agg(*args):
        matched, columns = scan_agg(*args)
        return matched, [None if c is None else (c[0] & LOW_WORD,) + c[1:]
                         for c in columns]

    def group(scan, key, slots, *args):
        matched = scan_group(scan, key, slots, *args)
        slots.sums[1::2] = 0
        return matched

    monkeypatch.setattr(native, "scan_agg", agg)
    monkeypatch.setattr(native, "scan_group", group)


def plant_padding_counted(monkeypatch):
    """A run's last partial chunk counts its padding slots as rows."""
    scan_agg, scan_group = native.scan_agg, native.scan_group

    def agg(scan, buffers, first, count, valid):
        return scan_agg(scan, buffers, first, count, 64 * count)

    def group(scan, key, slots, buffers, first, count, valid):
        return scan_group(scan, key, slots, buffers, first, count,
                          64 * count)

    monkeypatch.setattr(native, "scan_agg", agg)
    monkeypatch.setattr(native, "scan_group", group)


def plant_lt_as_le(monkeypatch):
    """``v < bound`` lowers to the inclusive interval ``[0, bound]``."""
    interval = codegen._interval

    def le(op, value):
        return (0, value) if op == "<" else interval(op, value)

    monkeypatch.setattr(codegen, "_interval", le)


@pytest.mark.parametrize("plant", [plant_sum_in_one_word,
                                   plant_padding_counted, plant_lt_as_le],
                         ids=["sum-in-one-word", "padding-counted",
                              "lt-as-le"])
def test_query_profile_catches_it(monkeypatch, plant):
    plant(monkeypatch)
    report = run_check(seed=0, ops=500, profile="query", max_failures=1,
                       shrink=False)
    assert not report.ok
    failure = report.failures[0]
    assert failure.kind == "native", failure.describe()
    monkeypatch.undo()
    assert run_case(failure.case) is None
