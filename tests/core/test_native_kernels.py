"""The native fused scans (``repro.core.native``) against the NumPy
kernels and a plain-Python oracle, at their boundaries.

Every width 1..64; the first, a middle and the last chunk of an exact
``words_for()`` buffer, and a last chunk ending at the final byte of an
``mmap`` region; interval bounds at 0, 1, ``2**bits - 1``, ``2**bits``
and the top of the uint64 domain; every aggregate alone and together,
grouped and ungrouped; empty runs; and runs the buffer does not hold,
which raise in Python before any call reaches C.
"""

import mmap
import os
import shutil
import stat
from importlib import resources

import numpy as np
import pytest

from repro.core import bitpack, native
from repro.core.bitpack_fast import unpack_chunk_range
from repro.query import Query, col
from repro.query.codegen import _interval
from repro.core.table import SmartTable

from tests.query._tables import unindexed_table

ALL_BITS = range(1, 65)
U64_MAX = (1 << 64) - 1
CHUNK = bitpack.CHUNK_ELEMENTS

loaded = pytest.mark.skipif(native.LIB is None,
                            reason="native scans unavailable (no compiler)")


def test_source_ships_as_package_data():
    source = resources.files("repro.core").joinpath("native.c")
    assert source.is_file()
    assert b"int64_t scan_agg(" in source.read_bytes()


class TestBuild:
    """The loader's cache and its fallbacks, on a private cache dir."""

    def test_builds_once_then_only_loads(self, monkeypatch, tmp_path):
        if native.LIB is None:
            pytest.skip("no compiler")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        umask = os.umask(0o002)  # a group-writable default
        try:
            lib = native._load()
        finally:
            os.umask(umask)
        built = list((tmp_path / "repro").iterdir())
        assert [path.suffix for path in built] == [".so"]
        assert lib.scan_agg is not None
        assert lib._name == str(built[0])
        assert not built[0].stat().st_mode & 0o022
        stamp = built[0].stat().st_mtime_ns
        native._load()
        assert [p.stat().st_mtime_ns for p in (tmp_path / "repro").iterdir()
                ] == [stamp]

    def test_a_build_prunes_stale_libraries(self, monkeypatch, tmp_path):
        """A build removes the other ``native-*.so`` of its private
        cache; a symlink and other names stay, and a cache that is not
        private is left alone."""
        if native.LIB is None:
            pytest.skip("no compiler")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        cache = tmp_path / "repro"
        cache.mkdir(mode=0o700)
        stale = [cache / "native-0123456789abcdef0123.so",
                 cache / "native-fedcba9876543210fedc.so"]
        for path in stale:
            path.write_bytes(b"an old build")
        target = tmp_path / "elsewhere.so"
        target.write_bytes(b"not in the cache")
        (cache / "native-symlinked000000000.so").symlink_to(target)
        (cache / "notes.txt").write_text("kept")
        lib = native._load()
        assert not any(path.exists() for path in stale)
        assert sorted(p.name for p in cache.iterdir()) == sorted(
            [os.path.basename(lib._name), "native-symlinked000000000.so",
             "notes.txt"])
        assert target.read_bytes() == b"not in the cache"
        # Only a build prunes: a load leaves a new stale name alone.
        stale[0].write_bytes(b"an old build")
        native._load()
        assert stale[0].exists()
        # A cache others can write is never pruned: the build goes
        # elsewhere.
        cache.chmod(0o777)
        (cache / os.path.basename(lib._name)).unlink()
        assert not native._load()._name.startswith(str(cache))
        assert stale[0].exists()

    def test_temp_dir_cache_is_per_user_and_private(self, monkeypatch,
                                                    tmp_path):
        if native.LIB is None:
            pytest.skip("no compiler")
        monkeypatch.setenv("XDG_CACHE_HOME", "relative/cache")
        monkeypatch.setattr(native.tempfile, "tempdir", str(tmp_path))
        cache = tmp_path / f"repro-{os.getuid()}"
        assert native._cache_dir() == str(cache)
        assert native._load()._name.startswith(str(cache))
        assert stat.S_IMODE(cache.stat().st_mode) == 0o700

    @pytest.mark.parametrize("planted", ["library-writable-by-others",
                                         "cache-writable-by-others",
                                         "owned-by-another-user"])
    def test_never_loads_a_library_others_could_plant(self, monkeypatch,
                                                      tmp_path, planted):
        """A file at the cache's predictable name that someone else owns
        or could have written is never loaded (loading this one would
        fail): the library is built and loaded privately instead."""
        if native.LIB is None:
            pytest.skip("no compiler")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        source = resources.files("repro.core").joinpath(
            "native.c").read_bytes()
        compiler = shutil.which("cc") or shutil.which("gcc")
        cache = tmp_path / "repro"
        cache.mkdir()
        library = cache / native._library_name(source, compiler)
        library.write_bytes(b"not a shared library")
        if planted == "library-writable-by-others":
            library.chmod(0o666)
        elif planted == "cache-writable-by-others":
            cache.chmod(0o777)
        else:
            uid = os.getuid()
            monkeypatch.setattr(native.os, "getuid", lambda: uid + 1)
        lib = native._load()
        assert lib.scan_agg is not None
        assert not lib._name.startswith(str(cache))
        assert library.read_bytes() == b"not a shared library"

    @pytest.mark.parametrize("broken", ["no-compiler", "failing-compiler",
                                        "unwritable-cache"])
    def test_falls_back_with_one_warning(self, monkeypatch, tmp_path,
                                         caplog, broken):
        if broken == "no-compiler":
            monkeypatch.setattr(native.shutil, "which", lambda name: None)
        elif broken == "failing-compiler":
            monkeypatch.setattr(native.shutil, "which",
                                lambda name: "/bin/false")
        else:
            blocker = tmp_path / "file"
            blocker.write_text("not a directory")
            monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        with caplog.at_level("WARNING", logger=native.__name__):
            assert native._load_or_warn() is None
        assert len(caplog.records) == 1
        assert "using NumPy" in caplog.records[0].getMessage()


def values_for(bits, n, seed=0):
    """Uniform values with the domain's two ends planted in every
    chunk."""
    rng = np.random.default_rng(seed + 97 * bits + n)
    top = (1 << bits) - 1
    values = rng.integers(0, top, size=n, dtype=np.uint64, endpoint=True)
    values[::CHUNK] = top
    values[1::CHUNK] = 0
    return values


def bounds_for(bits):
    """In-domain interval bounds at the edges of ``bits``: ``2**bits``
    and everything above fold into ``2**64 - 1``, the largest bound a
    kernel sees (a clamped ``2**64`` never reaches one)."""
    return sorted({0, 1, (1 << bits) - 1, min(1 << bits, U64_MAX), U64_MAX})


def python_scan(values, lo, hi):
    """(count, sum, min, max) of the values in ``[lo, hi]``."""
    kept = [int(v) for v in values if lo <= int(v) <= hi]
    return (len(kept), sum(kept), min(kept, default=None),
            max(kept, default=None))


def native_scan(words, bits, first, count, valid, lo, hi):
    scan = native.Scan([bits], [(lo, hi)], summed=[0], extremes=[0])
    n, ((total, low, high),) = native.scan_agg(scan, [words], first, count,
                                               valid)
    return (n, total) + ((low, high) if n else (None, None))


def numpy_scan(words, bits, first, count, valid, lo, hi):
    span = unpack_chunk_range(words, first, count, bits)[:valid]
    kept = span[(span >= np.uint64(lo)) & (span <= np.uint64(hi))]
    return (int(kept.size), int(kept.astype(object).sum()),
            int(kept.min()) if kept.size else None,
            int(kept.max()) if kept.size else None)


@loaded
class TestWidthsAndBounds:
    @pytest.mark.parametrize("bits", ALL_BITS)
    def test_first_middle_last_chunk(self, bits):
        n = 5 * CHUNK - 17  # a partial last chunk
        values = values_for(bits, n)
        words = bitpack.pack_array(values, bits)
        assert words.size == bitpack.words_for(n, bits)
        bounds = bounds_for(bits)
        for first, count in ((0, 1), (2, 1), (4, 1), (1, 3), (0, 5)):
            stop = min(n, (first + count) * CHUNK)
            valid = stop - first * CHUNK
            run = values[first * CHUNK:stop]
            for lo in bounds:
                for hi in bounds:
                    want = python_scan(run, lo, hi)
                    assert numpy_scan(words, bits, first, count, valid, lo,
                                      hi) == want
                    assert native_scan(words, bits, first, count, valid, lo,
                                       hi) == want, (first, count, lo, hi)

    @pytest.mark.parametrize("bits", [3, 20, 33, 64])
    def test_runs_past_a_superchunk(self, bits):
        count = 67  # a superchunk (64 chunks) and three more
        values = values_for(bits, count * CHUNK - 9)
        words = bitpack.pack_array(values, bits)
        top = (1 << bits) - 1
        for lo, hi in ((0, U64_MAX), (1, top // 2)):
            assert native_scan(words, bits, 0, count, values.size, lo,
                               hi) == python_scan(values, lo, hi)
        target = np.zeros_like(words)
        assert native.repack(words, bits, target, bits, 0, count) is None
        np.testing.assert_array_equal(target, words)

    @pytest.mark.parametrize("op", [">=", "<", "=="])
    @pytest.mark.parametrize("bits", [1, 7, 20, 25, 26, 32, 33, 57, 58, 64])
    def test_lowered_comparisons(self, bits, op):
        values = values_for(bits, 3 * CHUNK)
        words = bitpack.pack_array(values, bits)
        for bound in bounds_for(bits):
            lo, hi = _interval(op, bound)
            want = {">=": lambda v: v >= bound, "<": lambda v: v < bound,
                    "==": lambda v: v == bound}[op]
            kept = [int(v) for v in values if want(int(v))]
            got = native_scan(words, bits, 0, 3, 3 * CHUNK, lo, hi)
            assert got[:2] == (len(kept), sum(kept)), (op, bound)

    @pytest.mark.parametrize("bits", ALL_BITS)
    def test_last_chunk_at_the_end_of_an_mmap_region(self, bits):
        n_chunks = 3
        values = values_for(bits, n_chunks * CHUNK)
        packed = bitpack.pack_array(values, bits)
        size = mmap.PAGESIZE * (1 + packed.nbytes // mmap.PAGESIZE)
        with mmap.mmap(-1, size) as region:
            mapped = np.frombuffer(region, dtype=np.uint64)
            # The buffer's last byte is the region's last byte.
            words = mapped[mapped.size - packed.size:]
            words[:] = packed
            try:
                last = values[-CHUNK:]
                assert native_scan(words, bits, n_chunks - 1, 1, CHUNK, 0,
                                   U64_MAX) == python_scan(last, 0, U64_MAX)
                # A column only filtered on is compared without being
                # stored: the other decode path reads the same bytes.
                top = (1 << bits) - 1
                only_filtered = native.Scan([bits], [(1, max(1, top - 1))])
                assert native.scan_agg(only_filtered, [words], n_chunks - 1,
                                       1, CHUNK)[0] == python_scan(
                                           last, 1, max(1, top - 1))[0]
                target = np.zeros_like(packed)
                assert native.repack(words, bits, target, bits, 0,
                                     n_chunks) is None
                np.testing.assert_array_equal(target, packed)
            finally:
                del words, mapped  # release the exported buffer

    def test_empty_runs(self):
        words = bitpack.pack_array(values_for(9, CHUNK), 9)
        assert native_scan(words, 9, 0, 0, 0, 0, U64_MAX) == (0, 0, None,
                                                              None)
        assert native_scan(words, 9, 1, 0, 0, 0, U64_MAX) == (0, 0, None,
                                                              None)
        assert native_scan(words, 9, 0, 1, 64, 5, 4) == (0, 0, None, None)


@loaded
class TestNeverPastTheBuffer:
    class Refusing:
        """Stands in for the library: any call that reaches it fails."""

        def __getattr__(self, name):
            raise AssertionError(f"{name} reached C")

    @pytest.mark.parametrize("first, count", [(0, 3), (2, 2), (3, 1),
                                              (-1, 1), (0, -1)])
    def test_out_of_range_runs_raise_in_python(self, monkeypatch, first,
                                               count):
        words = bitpack.pack_array(values_for(11, 2 * CHUNK), 11)
        monkeypatch.setattr(native, "LIB", self.Refusing())
        scan = native.Scan([11], [None], summed=[0])
        with pytest.raises(ValueError):
            native.scan_agg(scan, [words], first, count, 0)
        with pytest.raises(ValueError):
            native.scan_group(scan, 0, native.GroupSlots(scan, 0), [words],
                              first, count, 0)
        with pytest.raises(ValueError):
            native.repack(words, 11, np.zeros_like(words), 11, first, count)

    def test_target_too_small_and_foreign_buffers_raise(self, monkeypatch):
        words = bitpack.pack_array(values_for(11, 2 * CHUNK), 11)
        monkeypatch.setattr(native, "LIB", self.Refusing())
        with pytest.raises(ValueError):  # 2 chunks at 12 bits: 24 words
            native.repack(words, 11, np.zeros(23, np.uint64), 12, 0, 2)
        scan = native.Scan([11], [None], summed=[0])
        for bad in (words.astype(np.int64), words[::2], words.reshape(2, -1)):
            with pytest.raises(ValueError):
                native.scan_agg(scan, [bad], 0, 1, 64)
        with pytest.raises(ValueError):
            native.Scan([0], [None])
        with pytest.raises(ValueError):
            native.Scan([8] * (native.MAX_COLUMNS + 1),
                        [None] * (native.MAX_COLUMNS + 1))


@loaded
class TestRepack:
    @pytest.mark.parametrize("bits", ALL_BITS)
    def test_every_width_both_ways(self, bits):
        n = 3 * CHUNK - 5
        values = values_for(bits, n) >> np.uint64(1) if bits > 1 else \
            np.zeros(n, np.uint64)
        source = bitpack.pack_array(values, bits)
        for target_bits in {max(1, bits - 1), bits, min(64, bits + 1), 64}:
            target = np.zeros(bitpack.words_for(n, target_bits), np.uint64)
            assert native.repack(source, bits, target, target_bits, 0,
                                 3) is None
            np.testing.assert_array_equal(
                target, bitpack.pack_array(values, target_bits))

    def test_overflow_names_the_first_value(self):
        values = np.arange(2 * CHUNK, dtype=np.uint64)
        source = bitpack.pack_array(values, 8)
        target = np.zeros(bitpack.words_for(values.size, 6), np.uint64)
        assert native.repack(source, 8, target, 6, 0, 2) == (64, 64)
        assert native.repack(source, 8, target, 6, 0, 1) is None


AGGREGATES = {
    "count": lambda q: q.count(),
    "sum": lambda q: q.sum("v"),
    "min": lambda q: q.min("v"),
    "max": lambda q: q.max("v"),
    "mean": lambda q: q.mean("v"),
}


def python_aggregates(keys, values, names):
    out = {}
    for name in names:
        if name == "count":
            out[name] = len(values)
        elif name == "sum":
            out[name] = sum(values)
        elif name == "min":
            out[name] = min(values, default=None)
        elif name == "max":
            out[name] = max(values, default=None)
        else:
            out[name] = sum(values) / len(values) if values else None
    return out


def run_both(query_for, monkeypatch):
    """The result under the native lowering, and under the NumPy one."""
    native_result = query_for().run(morsel=4096)
    with monkeypatch.context() as patch:
        patch.setattr(native, "LIB", None)
        numpy_result = query_for().run(morsel=4096)
    return native_result, numpy_result


@loaded
class TestAggregates:
    @pytest.mark.parametrize("key_bits, value_bits", [
        (1, 1), (4, 20), (8, 59), (12, 64), (16, 33)])
    @pytest.mark.parametrize("names", [
        ("count",), ("sum",), ("min",), ("max",), ("mean",),
        tuple(AGGREGATES)], ids="-".join)
    def test_alone_and_together_grouped_and_not(self, monkeypatch, key_bits,
                                                value_bits, names):
        n = 3 * 4096 + 77
        rng = np.random.default_rng(key_bits * 64 + value_bits)
        k = rng.integers(0, 1 << key_bits, size=n, dtype=np.uint64)
        v = values_for(value_bits, n)
        table = unindexed_table({"k": k, "v": v})
        lo = int(np.quantile(k, 0.2))
        mask = k >= lo

        def query(group):
            def build():
                q = Query(table).where(col("k") >= lo)
                if group:
                    q = q.group_by("k")
                for name in names:
                    q = AGGREGATES[name](q)
                return q
            return build

        got, want = run_both(query(False), monkeypatch)
        assert got.stats.morsels_native == got.stats.morsels_executed > 0
        assert want.stats.morsels_native == 0
        expected = python_aggregates(k[mask], [int(x) for x in v[mask]],
                                     names)
        assert list(got.aggregates.values()) == list(expected.values())
        assert got.aggregates == want.aggregates

        got, want = run_both(query(True), monkeypatch)
        assert got.stats.morsels_native == got.stats.morsels_executed
        assert list(got.groups.items()) == list(want.groups.items())
        for key, aggs in got.groups.items():
            rows = mask & (k == key)
            assert list(aggs.values()) == list(python_aggregates(
                k[rows], [int(x) for x in v[rows]], names).values())

    def test_wide_keys_and_row_queries_stay_in_numpy(self):
        k = np.arange(5000, dtype=np.uint64) << np.uint64(20)
        table = SmartTable.from_arrays({"k": k, "v": k})
        grouped = Query(table).group_by("k").sum("v").run()
        assert grouped.stats.morsels_native == 0
        rows = Query(table).where(col("k") >= 3).select("v").run()
        assert rows.stats.morsels_native == 0
        assert "lowering: numpy" in Query(table).group_by("k").sum(
            "v").plan().explain()

    def test_explain_names_the_lowering(self, monkeypatch):
        k = np.arange(5000, dtype=np.uint64)
        table = unindexed_table({"k": k, "v": k})
        plan = Query(table).where(col("k") < 10).sum("v").plan()
        assert "  lowering: native: scan_agg where c" in plan.explain()
        monkeypatch.setattr(native, "LIB", None)
        assert "  lowering: numpy" in plan.explain()

    def test_empty_runs_and_no_matches(self, monkeypatch):
        k = np.arange(1000, dtype=np.uint64)
        table = unindexed_table({"k": k, "v": k})
        for build in (
                lambda: Query(table).where(col("k") >= 5000).sum("v").min("v"),
                lambda: Query(table).where((col("k") >= 10) & (col("k") < 5))
                .count().max("v"),
                lambda: Query(table).where(col("k") >= 5000).group_by("k")
                .count()):
            got, want = run_both(build, monkeypatch)
            assert got.aggregates == want.aggregates
            assert got.groups == want.groups
            assert got.stats.rows_matched == 0
