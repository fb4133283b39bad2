"""Planted bugs in the byte-period pack kernel.

Each plant wraps ``bitpack_fast._pack_periods`` and corrupts the layout
it stores through, leaving the decode side intact, so a wrong word
buffer shows up as a ``storage`` divergence (a replica that decodes
wrong) or a ``result`` one (an operator answering from it).  The codec
profile generates lengths 4,097-5,200 with ``BIT_WIDTHS`` including 63,
which reach the kernel; where its seed-0 run misses a plant, a unit
case pins the bug instead.
"""

import numpy as np
import pytest

from repro.check import BIT_WIDTHS, run_check
from repro.check.runner import run_case
from repro.core import bitpack, bitpack_fast

CAUGHT = ("storage", "result")


def plant(monkeypatch, mutate):
    orig = bitpack_fast._pack_periods

    def planted(grid, raw, period, layout):
        orig(grid, raw, period, mutate(layout))

    monkeypatch.setattr(bitpack_fast, "_pack_periods", planted)


def drop_ninth_byte(layout):
    """Lanes that spill past 64 bits lose their top bits."""
    return tuple(lane[:4] + (False,) for lane in layout)


def previous_lane_offset(layout):
    """Lane ``j`` is ORed in at lane ``j - 1``'s byte and bit."""
    return layout[:1] + layout[:-1]


def spill_values(n):
    # Every element sets its top bit, so each spilling lane loses a bit.
    rng = np.random.default_rng(n)
    return rng.integers(1 << 62, 1 << 63, size=n, dtype=np.uint64)


def test_generated_cases_reach_the_kernel_at_a_spilling_width():
    assert 63 in BIT_WIDTHS
    assert any(lane[4] for lane in bitpack_fast._byte_period(63)[3])


class TestLaneOffsetPlant:
    def test_codec_profile_catches_it(self, monkeypatch):
        plant(monkeypatch, previous_lane_offset)
        report = run_check(seed=0, ops=500, profile="codec",
                           max_failures=1, shrink=False)
        assert not report.ok
        failure = report.failures[0]
        assert failure.kind in CAUGHT
        monkeypatch.undo()
        assert run_case(failure.case) is None


class TestNinthBytePlant:
    def test_mixed_profile_catches_it(self, monkeypatch):
        plant(monkeypatch, drop_ninth_byte)
        report = run_check(seed=0, ops=500, profile="mixed",
                           max_failures=1, shrink=False)
        assert not report.ok
        failure = report.failures[0]
        assert failure.kind in CAUGHT
        monkeypatch.undo()
        assert run_case(failure.case) is None

    @pytest.mark.parametrize("bits", [59, 61, 62, 63])
    @pytest.mark.parametrize("n", [4097, 5200])
    def test_unit_case_catches_it(self, monkeypatch, bits, n):
        # The codec profile's seed-0 run fills its 63-bit arrays with
        # small values; its only large spilling pack is a query
        # companion column no seed-0 op reads back, so it misses this
        # plant and this case pins it.
        values = spill_values(n) >> np.uint64(63 - bits)
        assert np.array_equal(
            bitpack.unpack_array(bitpack.pack_array(values, bits), n, bits),
            values)
        plant(monkeypatch, drop_ninth_byte)
        assert not np.array_equal(
            bitpack.unpack_array(bitpack.pack_array(values, bits), n, bits),
            values)
