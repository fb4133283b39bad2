"""Tests for zone maps (chunk-skipping range scans)."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import allocate
from repro.core.scan_ops import (clamp_u64_range, count_in_range,
                                  select_in_range)
from repro.core.zonemap import ZoneMap, _chunk_runs
from repro.numa import NumaAllocator, machine_2x8_haswell
from repro.obs.registry import registry


@pytest.fixture
def allocator():
    return NumaAllocator(machine_2x8_haswell())


@pytest.fixture
def sorted_array(allocator):
    # Sorted data gives tight, disjoint zones: ideal skipping.
    values = np.sort(
        np.random.default_rng(0).integers(0, 10_000, size=1000)
    ).astype(np.uint64)
    sa = allocate(1000, bits=14, values=values, allocator=allocator)
    return sa, values


class TestZoneMapConstruction:
    def test_zones_cover_data(self, sorted_array, allocator):
        sa, values = sorted_array
        zm = ZoneMap.build(sa)
        assert zm.n_chunks == 16  # ceil(1000/64)
        mins = zm.mins
        maxs = zm.maxs
        for chunk in range(zm.n_chunks):
            lo = chunk * 64
            hi = min(1000, lo + 64)
            assert mins[chunk] == values[lo:hi].min()
            assert maxs[chunk] == values[lo:hi].max()

    def test_index_is_tiny(self, sorted_array, allocator):
        sa, _ = sorted_array
        zm = ZoneMap.build(sa)
        assert zm.storage_bytes < sa.storage_bytes / 4

    def test_empty_array(self, allocator):
        sa = allocate(0, bits=8, allocator=allocator)
        zm = ZoneMap.build(sa)
        assert zm.count_in_range(0, 100) == 0
        assert zm.select_in_range(0, 100).size == 0


class TestZoneScans:
    def test_counts_match_full_scan(self, sorted_array, allocator):
        sa, values = sorted_array
        zm = ZoneMap.build(sa)
        for lo, hi in ((0, 100), (5000, 6000), (9990, 10_500), (0, 20_000)):
            assert zm.count_in_range(lo, hi) == count_in_range(sa, lo, hi)

    def test_select_matches_full_scan(self, sorted_array, allocator):
        sa, values = sorted_array
        zm = ZoneMap.build(sa)
        np.testing.assert_array_equal(
            zm.select_in_range(3000, 4000), select_in_range(sa, 3000, 4000)
        )

    def test_degenerate_ranges(self, sorted_array, allocator):
        sa, _ = sorted_array
        zm = ZoneMap.build(sa)
        assert zm.count_in_range(500, 500) == 0
        assert zm.count_in_range(-5, 0) == 0
        assert zm.candidate_chunks(7, 3).size == 0

    def test_skipping_observable_via_stats(self, sorted_array, allocator):
        # The point of zone maps: a selective range unpacks only the
        # chunks whose zones intersect it.
        sa, values = sorted_array
        zm = ZoneMap.build(sa)
        sa.stats.reset()
        zm.count_in_range(5000, 5100)
        candidates = zm.candidate_chunks(5000, 5100)
        assert sa.stats.chunk_unpacks <= candidates.size
        assert sa.stats.chunk_unpacks < zm.n_chunks / 2

    def test_fully_covered_chunks_counted_without_unpack(self, allocator):
        # All-equal data: every chunk's zone lies inside a wide range,
        # so counting needs zero unpacks.
        sa = allocate(640, bits=8, values=np.full(640, 7), allocator=allocator)
        zm = ZoneMap.build(sa)
        sa.stats.reset()
        assert zm.count_in_range(0, 100) == 640
        assert sa.stats.chunk_unpacks == 0

    def test_unsorted_data_still_correct(self, allocator):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 1000, size=500, dtype=np.uint64)
        sa = allocate(500, bits=10, values=values, allocator=allocator)
        zm = ZoneMap.build(sa)
        assert zm.count_in_range(200, 400) == int(
            ((values >= 200) & (values < 400)).sum()
        )

    @pytest.mark.parametrize("monotone", [True, False])
    def test_covered_partial_tail_chunk(self, allocator, monotone):
        # 100 elements: one full chunk and a 36-element tail.  A range
        # covering both must count the tail as 36, not 64, undecoded.
        values = np.arange(100, dtype=np.uint64)
        if not monotone:
            values[:64] = values[:64][::-1] + 100  # chunk 0 above chunk 1
        sa = allocate(100, bits=8, values=values, allocator=allocator)
        zm = ZoneMap.build(sa)
        assert zm.monotone is monotone
        sa.stats.reset()
        assert zm.count_in_range(0, 200) == 100
        assert sa.stats.chunk_unpacks == 0
        # Only the tail covered (chunk 0 straddles ``lo`` when sorted).
        lo = 64 if not monotone else 50
        expected = int(((values >= lo) & (values < 100)).sum())
        assert zm.count_in_range(lo, 100) == expected
        np.testing.assert_array_equal(
            zm.select_in_range(lo, 100),
            np.nonzero((values >= lo) & (values < 100))[0])


def zone_counters(zm):
    reg = registry()
    label = zm.array.stats.array_label
    return (reg.value("zonemap.chunks_candidate", array=label),
            reg.value("zonemap.chunks_pruned", array=label))


def zone_map_of(kind, n, draw_values):
    values = np.array(draw_values, dtype=np.uint64)[:n]
    if kind == "sorted":
        values = np.sort(values)
    elif kind == "constant" and n:
        values[:] = values[0]
    sa = allocate(n, bits=64, values=values if n else None,
                  allocator=NumaAllocator(machine_2x8_haswell()))
    return ZoneMap.build(sa), values


_EDGES = [-7, 0, 1, 2**63, 2**64 - 1, 2**64, 2**64 + 9]

#: Six chunks: two all-zero, then [0..1], [5], [7..2**64-1], [2**64-1].
#: ``[1, 2**64-1)`` covers chunk 3 and leaves edge chunks 2 and 4 in one
#: superchunk window, so that window decodes its hull, chunks 2-4.
_EDGE_RUNS_ONE_WINDOW = ([0] * 128 + [0] * 32 + [1] * 32 + [5] * 64
                         + [7] * 32 + [2**64 - 1] * 32 + [2**64 - 1] * 64)
_VALUE = st.one_of(st.sampled_from([0, 1, 2**63, 2**64 - 1]),
                   st.integers(0, 2**64 - 1), st.integers(0, 300))
_BOUND = st.one_of(st.sampled_from(_EDGES), st.integers(0, 300),
                   st.integers(-2**65, 2**65))


class TestRunBinding:
    """On a monotone map, a range binds by two binary searches to one
    chunk run, and its covered chunks by two more; both must agree with
    comparing every chunk's bounds."""

    @settings(max_examples=120, deadline=None)
    @example(kind="sorted", n=384, values=_EDGE_RUNS_ONE_WINDOW,
             bounds=[(1, 2**64 - 1)], superchunk=4096)
    @given(kind=st.sampled_from(["sorted", "random", "constant"]),
           n=st.sampled_from([0, 1, 37, 64, 65, 200, 384]),
           values=st.lists(_VALUE, min_size=384, max_size=384),
           bounds=st.lists(st.tuples(_BOUND, _BOUND), min_size=1,
                           max_size=6),
           superchunk=st.sampled_from([64, 128, 4096]))
    def test_run_path_matches_compare_path(self, kind, n, values, bounds,
                                           superchunk):
        zm, data = zone_map_of(kind, n, values)
        mins, maxs = (zm.mins, zm.maxs)
        expect_monotone = bool(np.all(mins[1:] >= mins[:-1])
                               and np.all(maxs[1:] >= maxs[:-1]))
        assert zm.monotone is expect_monotone
        if kind != "random":
            assert zm.monotone
        x = data.astype(object)
        # lo == hi and an inverted range ride along with every pair.
        for lo, hi in [*bounds, (bounds[0][0], bounds[0][0]),
                       (bounds[0][1], bounds[0][0])]:
            before = zone_counters(zm)
            chunks = zm.candidate_chunks(lo, hi)
            mid = zone_counters(zm)
            compared = zm._compare_candidates(lo, hi)
            after = zone_counters(zm)
            np.testing.assert_array_equal(chunks, compared)
            assert chunks.dtype == compared.dtype == np.int64
            assert (tuple(m - b for m, b in zip(mid, before))
                    == tuple(a - m for a, m in zip(after, mid)))
            if zm.monotone:
                run = zm.candidate_run(lo, hi)
                assert run is not None
                np.testing.assert_array_equal(np.arange(*run), chunks)

            # Covered chunks: every element matches, by either path.
            covered = zm._compare_covered(lo, hi)
            assert covered.tolist() == [
                all(lo <= v < hi for v in x[c * 64:(c + 1) * 64])
                for c in range(zm.n_chunks)]
            assert set(np.flatnonzero(covered)) <= set(chunks.tolist())
            covered_run = zm.covered_run(lo, hi)
            # ``None`` only off a monotone map; an empty range is (0, 0).
            assert (covered_run is None) is (
                not zm.monotone and zm.n_chunks > 0
                and clamp_u64_range(lo, hi) is not None)
            if covered_run is not None:
                assert list(range(*covered_run)) == \
                    np.flatnonzero(covered).tolist()

            match = np.nonzero([lo <= v < hi for v in x])[0]
            zm.array.stats.reset()
            assert zm.count_in_range(lo, hi, superchunk=superchunk) \
                == match.size
            unpacks = zm.array.stats.chunk_unpacks
            np.testing.assert_array_equal(
                zm.select_in_range(lo, hi, superchunk=superchunk), match)
            if zm.monotone:
                # The same scans down the compare path decode the same
                # chunks.
                zm.monotone = False
                zm.array.stats.reset()
                assert zm.count_in_range(lo, hi, superchunk=superchunk) \
                    == match.size
                assert zm.array.stats.chunk_unpacks == unpacks
                zm.monotone = True


    def test_edge_runs_in_one_window_decode_their_hull(self):
        # The run path decodes what the compare path's window_hulls
        # does (and what the smartcheck oracle predicts): the hull of
        # both edge runs, the covered chunk between them included.
        zm, data = zone_map_of("sorted", 384, _EDGE_RUNS_ONE_WINDOW)
        assert zm.monotone
        lo, hi = 1, 2**64 - 1
        expected = int(((data >= lo) & (data < hi)).sum())
        decoded = []
        for monotone in (True, False):
            zm.monotone = monotone
            zm.array.stats.reset()
            assert zm.count_in_range(lo, hi) == expected == 128
            decoded.append(zm.array.stats.chunk_unpacks)
        assert decoded == [3, 3]


def chunk_runs_loop(chunks, max_run):
    """The chunk-at-a-time loop ``_chunk_runs`` replaced (reference)."""
    i = 0
    while i < chunks.size:
        j = i + 1
        while (j < chunks.size and j - i < max_run
               and chunks[j] == chunks[j - 1] + 1):
            j += 1
        yield int(chunks[i]), j - i
        i = j


class TestChunkRuns:
    @pytest.mark.parametrize("chunks, max_run, expected", [
        ([], 4, []),
        ([7], 4, [(7, 1)]),
        ([0, 1, 2, 3], 4, [(0, 4)]),                    # exactly max_run
        ([0, 1, 2, 3, 4], 4, [(0, 4), (4, 1)]),         # one over
        ([3, 4, 5, 6, 7, 8, 9, 10, 11], 4, [(3, 4), (7, 4), (11, 1)]),
        ([0, 1, 5, 6, 7, 20], 4, [(0, 2), (5, 3), (20, 1)]),   # gaps
        ([2, 3, 4, 9], 1, [(2, 1), (3, 1), (4, 1), (9, 1)]),
    ])
    def test_cases(self, chunks, max_run, expected):
        chunks = np.asarray(chunks, dtype=np.int64)
        runs = list(_chunk_runs(chunks, max_run))
        assert runs == expected == list(chunk_runs_loop(chunks, max_run))
        assert all(type(first) is int and type(count) is int
                   for first, count in runs)

    @settings(max_examples=200, deadline=None)
    @given(st.sets(st.integers(0, 300)), st.integers(1, 12),
           st.sampled_from([np.int64, np.intp, np.uint64]))
    def test_matches_the_loop_it_replaced(self, chunks, max_run, dtype):
        chunks = np.array(sorted(chunks), dtype=dtype)
        runs = list(_chunk_runs(chunks, max_run))
        assert runs == list(chunk_runs_loop(chunks, max_run))
        # The contract the executor relies on: ascending, disjoint,
        # bounded, and covering exactly the candidates.
        assert all(1 <= count <= max_run for _first, count in runs)
        covered = [c for first, count in runs
                   for c in range(first, first + count)]
        assert covered == chunks.tolist()
