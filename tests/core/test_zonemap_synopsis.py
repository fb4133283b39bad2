"""Chunk synopses on zone maps: ``ZoneMap.from_values`` against the
decode-built map, the sums cutoff, ``synopsis`` reductions, the ingest
maps ``build_zone_map`` returns without decoding and each write keeps
exact, and the fragmentation rule of the zone-map scans
(``window_hulls``) against the oracle's."""

import sys
import threading

import numpy as np
import pytest

from repro.check.oracle import hull_decoded
from repro.core import allocate
from repro.core.bitpack import max_bits_needed
from repro.core.table import SmartTable
from repro.core.zonemap import (HULL_CALL_CHUNKS, MAX_SUM_BITS, ZoneMap,
                                chunk_rows, window_hulls)

WIDTHS = (1, 20, 32, 33, 58, 59, 63, 64)
LENGTHS = (0, 1, 63, 64, 65, 4095, 4097, 70_000)
CODECS = ("bitpack", "dict", "delta", "rle")


def column(codec, bits, n, seed=0):
    """``n`` values at most ``bits`` wide, shaped for ``codec``: the
    domain's top value present whenever the column has two rows."""
    rng = np.random.default_rng([seed, bits, n])
    top = (1 << bits) - 1
    if codec == "dict":
        values = rng.choice(rng.integers(0, top, 5, dtype=np.uint64,
                                         endpoint=True), n)
    elif codec == "rle":
        values = np.repeat(rng.integers(0, top, -(-n // 50) or 1,
                                        dtype=np.uint64, endpoint=True),
                           50)[:n]
    else:
        values = rng.integers(0, top, n, dtype=np.uint64, endpoint=True)
        if codec == "delta":
            values = np.sort(values)
    values = np.asarray(values, dtype=np.uint64)
    if n >= 2:
        values[-1] = top  # the partial last chunk holds the top value
        if codec == "delta":
            values.sort()
    return values


class TestFromValues:
    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("bits", WIDTHS)
    def test_matches_decode_build(self, bits, n, codec):
        values = column(codec, bits, n)
        array = allocate(n, bits=bits, values=values, codec=codec)
        built = ZoneMap.build(array)
        fast = ZoneMap.from_values(array, values)
        for zone in ("mins", "maxs", "sums"):
            a, b = getattr(built, zone), getattr(fast, zone)
            assert (a is None) == (b is None), zone
            if a is not None:
                np.testing.assert_array_equal(a, b)
        assert built.bits == fast.bits == max_bits_needed(values)
        assert built.monotone == fast.monotone

    @pytest.mark.parametrize("n", [1, 63, 65, 4097])
    @pytest.mark.parametrize("bits", [20, 58])
    def test_trailing_partial_chunk_uses_real_elements(self, bits, n):
        values = column("bitpack", bits, n)
        zm = ZoneMap.from_values(allocate(n, bits=bits, values=values),
                                 values)
        tail = values[(zm.n_chunks - 1) * 64:]
        assert zm.mins[-1] == tail.min()
        assert zm.maxs[-1] == tail.max()
        assert int(zm.sums[-1]) == int(tail.astype(object).sum())

    @pytest.mark.parametrize("bits", WIDTHS)
    def test_sums_kept_up_to_58_bits_at_width_plus_six(self, bits):
        values = np.full(64 * 3, (1 << bits) - 1, dtype=np.uint64)
        zm = ZoneMap.from_values(allocate(values.size, bits=bits,
                                          values=values), values)
        if bits > MAX_SUM_BITS:
            assert zm.sums is None
            with pytest.raises(ValueError):
                zm.synopsis("sum", (0, 3))
            return
        assert zm.bits == bits
        # A full chunk of the largest value: the largest chunk sum.
        assert zm.sums.tolist() == [64 * ((1 << bits) - 1)] * 3

    def test_rejects_values_of_another_length(self):
        with pytest.raises(ValueError):
            ZoneMap.from_values(allocate(10, bits=8), np.zeros(9, np.uint64))


class TestSynopsis:
    @pytest.mark.parametrize("bits", [1, 20, 33, 58])
    def test_reductions_over_runs_and_masks(self, bits):
        n = 64 * 40 + 17
        rng = np.random.default_rng(bits)
        values = rng.integers(0, (1 << bits) - 1, n, dtype=np.uint64,
                              endpoint=True)
        values[::7] = (1 << bits) - 1
        zm = ZoneMap.from_values(allocate(n, bits=bits, values=values),
                                 values)
        chunks = -(-n // 64)
        mask = rng.random(chunks) < 0.5
        mask[-1] = True
        for selection in ((0, chunks), (3, 11), (5, 5), mask):
            rows = np.zeros(chunks, dtype=bool)
            if isinstance(selection, tuple):
                rows[selection[0]:selection[1]] = True
            else:
                rows = selection
            picked = values[np.repeat(rows, 64)[:n]]
            assert zm.synopsis("sum", selection) == int(
                picked.astype(object).sum())
            assert chunk_rows(n, selection) == picked.size
            expect_min = int(picked.min()) if picked.size else None
            expect_max = int(picked.max()) if picked.size else None
            assert zm.synopsis("min", selection) == expect_min
            assert zm.synopsis("max", selection) == expect_max

    def test_sums_past_two_to_the_64_are_exact(self):
        # 58-bit chunk sums near 2**64 each: the slice total is far
        # past uint64, summed in 32-bit halves.
        values = np.full(64 * 1000, (1 << 58) - 1, dtype=np.uint64)
        zm = ZoneMap.from_values(allocate(values.size, bits=58,
                                          values=values), values)
        assert zm.synopsis("sum", (0, 1000)) == 64_000 * ((1 << 58) - 1)


class TestIngestMaps:
    @pytest.fixture
    def table(self):
        rng = np.random.default_rng(3)
        return SmartTable.from_arrays({
            "ts": np.sort(rng.integers(0, 1 << 32, 10_000)).astype(
                np.uint64),
            "amount": rng.integers(0, 1 << 20, 10_000).astype(np.uint64),
        }, codecs={"ts": "delta"})

    def test_every_column_starts_with_a_current_map(self, table):
        for name in table.column_names:
            zm = table[name].zone_map
            assert zm is not None and zm.sums is not None

    def test_build_zone_map_on_a_current_map_decodes_nothing(self, table):
        for name in table.column_names:
            array = table[name]
            before = array.stats.chunk_unpacks
            cached = array.zone_map
            assert table.build_zone_map(name) is cached
            assert array.stats.chunk_unpacks - before == 0

    def test_a_write_replaces_the_map_with_an_exact_one(self, table):
        array = table["amount"]
        old = array.zone_map
        before = array.stats.snapshot()
        array.scatter_many(np.array([5, 70], dtype=np.int64),
                           np.array([1, 2], dtype=np.uint64))
        fresh = array.zone_map
        assert fresh is not old and table.build_zone_map("amount") is fresh
        after = array.stats.snapshot()
        # Upkeep reads the written words outside the read counters.
        assert after == {**before, "bulk_elements_written":
                         before["bulk_elements_written"] + 2}
        exact = ZoneMap.from_values(array, array.to_numpy())
        for stat in ("mins", "maxs", "sums"):
            np.testing.assert_array_equal(getattr(fresh, stat),
                                          getattr(exact, stat))
        assert fresh.monotone == exact.monotone


class TestConcurrentWrites:
    def test_racing_writers_and_readers_leave_an_exact_map(self):
        # More writers than cores, each on its own chunks, with readers
        # planning against the map throughout: an upkeep that lost an
        # update (one writer publishing over another's map) or a reader
        # that saw a torn slot would break the invariants below.
        n_writers, rounds, n = 4, 60, 64 * 64
        values = np.arange(n, dtype=np.uint64) % 1000
        table = SmartTable.from_arrays({"v": values})
        array = table["v"]
        rng = np.random.default_rng(5)
        writes = [[(w * 16 * 64 + np.sort(rng.choice(16 * 64, 9,
                                                     replace=False)),
                    rng.integers(0, 1000, 9, dtype=np.uint64))
                   for _ in range(rounds)] for w in range(n_writers)]
        errors, done = [], threading.Event()

        def write(batches):
            try:
                for idx, new in batches:
                    array.scatter_many(idx, new)
                    array[int(idx[0])] = int(new[0])
            except Exception as exc:  # surfaced after join
                errors.append(exc)

        def read():
            try:
                while not done.is_set():
                    zm = array.zone_map
                    assert (zm.mins <= zm.maxs).all()
                    got = array.gather_many(np.arange(0, n, 7))
                    assert int(got.max()) < 1000
            except Exception as exc:  # surfaced after join
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            readers = [threading.Thread(target=read) for _ in range(2)]
            writers = [threading.Thread(target=write, args=(batches,))
                       for batches in writes]
            for t in readers + writers:
                t.start()
            for t in writers:
                t.join(timeout=60)
            done.set()
            for t in readers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in readers + writers)
        assert not errors, errors
        exact = ZoneMap.from_values(array, array.to_numpy())
        for stat in ("mins", "maxs", "sums"):
            np.testing.assert_array_equal(getattr(array.zone_map, stat),
                                          getattr(exact, stat))


class TestFragmentation:
    @pytest.mark.parametrize("window", [1, 16, 64, 1024])
    def test_hulls_match_the_oracle(self, window):
        rng = np.random.default_rng(window)
        for p in (0.02, 0.3, 0.5, 0.95):
            chunks = rng.random(5000) < p
            first, stop = window_hulls(chunks, window)
            got = chunks.copy()
            for lo, hi in zip(first.tolist(), stop.tolist()):
                got[lo:hi] = True
            np.testing.assert_array_equal(got, hull_decoded(chunks, window))

    @pytest.mark.parametrize("window", [64, 1024])
    def test_decode_calls_per_window_are_bounded(self, window):
        rng = np.random.default_rng(7)
        bound = 1 + window // HULL_CALL_CHUNKS
        for p in (0.01, 0.1, 0.5, 0.9):
            chunks = rng.random(20_000) < p
            first, stop = window_hulls(chunks, window)
            for w in range(-(-chunks.size // window)):
                part = chunks[w * window:(w + 1) * window]
                runs = int(np.count_nonzero(part[1:] > part[:-1])
                           + part[:1].sum())
                calls = 1 if stop[w] else runs
                assert calls <= bound

    def test_scattered_candidates_decode_one_call_per_superchunk(self):
        # A uniform column: ``v < k`` keeps scattered chunks, which the
        # zone-map scans read one superchunk hull per call.
        rng = np.random.default_rng(11)
        n = 64 * 4096
        values = rng.integers(0, 1 << 20, n).astype(np.uint64)
        array = allocate(n, bits=20, values=values)
        zm = ZoneMap.from_values(array, values)
        calls = []
        decode = array.decode_chunks

        def counted(first, count, **kwargs):
            calls.append(count)
            return decode(first, count, **kwargs)

        array.decode_chunks = counted
        try:
            for k in (10_000, 50_000):
                del calls[:]
                np.testing.assert_array_equal(
                    zm.select_in_range(0, k), np.flatnonzero(values < k))
                assert len(calls) <= 64  # superchunks of 64 chunks
                del calls[:]
                assert zm.count_in_range(0, k) == int((values < k).sum())
                assert len(calls) <= 64
        finally:
            del array.decode_chunks
