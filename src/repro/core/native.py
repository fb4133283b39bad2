"""The native scan kernels: ``native.c`` built once per user, through ctypes.

``native.c`` holds three fused primitives over the bit-packed layout:
:func:`scan_agg` (an ungrouped count/sum/min/max under a conjunction of
per-column ranges), :func:`scan_group` (the same pass folded into
per-key slots of a narrow key) and :func:`repack` (decode a chunk run
at one width, check it fits another, pack it there).  ctypes releases
the GIL for the length of each call.

Build.  At first import the source is compiled with ``cc -O3 -fPIC
-shared`` (no ``-march=native``: the cache may be shared between
machines) into ``$XDG_CACHE_HOME/repro`` (``~/.cache/repro``; a
``repro-<uid>`` directory of the temp dir when neither is an absolute
path), under a name keyed on the hashes of the source, the compiler's
version and the flags.  The build writes a temp file and
``os.replace``s it into place, so two processes building at once both
end with a whole library; a cache hit only loads it.  A build into the
private cache also removes the libraries earlier sources, compilers or
flags left there.  The cache directory and the library must belong to
this user and be writable by no one else, or the library is built
privately instead (see :func:`_load`).  With no compiler, a failed
build or an unwritable cache, :data:`LIB` stays ``None``, one warning is
logged, the ``native.available`` gauge reads 0 and every caller runs its
NumPy twin.

Memory safety.  A chunk run ``[first, first + count)`` of a ``bits``
wide column is exactly the words ``[first * bits, (first + count) *
bits)``; each wrapper checks every buffer holds them (and is a
contiguous ``uint64`` array) before the call, and raises
``ValueError`` instead of reaching C.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shutil
import stat
import subprocess
import sys
import tempfile
from importlib import resources
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..obs.registry import registry as _obs_registry

_log = logging.getLogger(__name__)

_FLAGS = ("-O3", "-fPIC", "-shared")

#: Columns one scan reads at most (the C side's column bitsets).
MAX_COLUMNS = 32

_P, _I32, _I64, _U32 = (ctypes.c_void_p, ctypes.c_int32, ctypes.c_int64,
                        ctypes.c_uint32)
_SIGNATURES = {
    "scan_agg": (_I64, [_P, _P, _I64, _I64, _I64, _P, _P, _U32, _U32, _U32,
                        _P]),
    "scan_group": (_I64, [_P, _P, _I64, _I64, _I64, _P, _P, _U32, _I32,
                          _U32, _U32, _P, _P, _P, _P]),
    "repack": (_I64, [_P, _I32, _P, _I32, _I64, _I64, _P]),
}


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    if not os.path.isabs(base):
        return os.path.join(tempfile.gettempdir(), f"repro-{os.getuid()}")
    return os.path.join(base, "repro")


def _library_name(source: bytes, compiler: str) -> str:
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             check=True).stdout
    key = hashlib.sha256()
    for part in (source, version, " ".join(_FLAGS).encode()):
        key.update(hashlib.sha256(part).digest())
    return f"native-{key.hexdigest()[:20]}.so"


def _private(path: str, kind: int) -> bool:
    """Whether ``path`` is a ``kind`` (``stat.S_IFDIR``/``S_IFREG``), not
    a symlink, owned by this user and writable by no one else: only then
    may a library in it, or it, be loaded."""
    try:
        st = os.lstat(path)
    except FileNotFoundError:
        return False
    return (stat.S_IFMT(st.st_mode) == kind and st.st_uid == os.getuid()
            and not st.st_mode & (stat.S_IWGRP | stat.S_IWOTH))


def _load() -> ctypes.CDLL:
    """Load the cached library, building it first on a cache miss: into
    a temp file beside its final name, then one atomic rename.

    A cache directory or library that another user owns or could write
    (say, planted in a shared temp dir under the predictable name) is
    never loaded: the library is then built into a fresh private
    directory, loaded from there and the directory removed."""
    if sys.byteorder != "little":
        raise OSError("the packed layout is read in place only on a "
                      "little-endian host")
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        raise OSError("no C compiler (cc or gcc) on PATH")
    source = resources.files(__package__).joinpath("native.c").read_bytes()
    directory = _cache_dir()
    os.makedirs(directory, mode=0o700, exist_ok=True)
    path = os.path.join(directory, _library_name(source, compiler))
    scratch = None
    if not _private(directory, stat.S_IFDIR) or (
            os.path.lexists(path) and not _private(path, stat.S_IFREG)):
        _log.warning("native cache %s is not private to this user; "
                     "building outside it", directory)
        scratch = tempfile.mkdtemp(prefix="repro-native-")
        path = os.path.join(scratch, os.path.basename(path))
    try:
        if not os.path.lexists(path):
            fd, tmp = tempfile.mkstemp(prefix=".native-", suffix=".so",
                                       dir=os.path.dirname(path))
            os.close(fd)
            try:
                subprocess.run([compiler, *_FLAGS, "-x", "c", "-", "-o",
                                tmp], input=source, capture_output=True,
                               check=True)
                # Whatever the umask: a library others can write is
                # never loaded.
                os.chmod(tmp, 0o755)
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
            if scratch is None:
                # Remove the libraries earlier sources, compilers or
                # flags left: this user's regular files only, never
                # through a symlink.  Nobody else can write the
                # directory, so nothing is swapped in between the check
                # and the unlink.
                for name in os.listdir(directory):
                    old = os.path.join(directory, name)
                    if (old != path and name.startswith("native-")
                            and name.endswith(".so")
                            and _private(old, stat.S_IFREG)):
                        os.unlink(old)
        return _bind(ctypes.CDLL(path))
    finally:
        if scratch is not None:
            shutil.rmtree(scratch)


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    for name, (restype, argtypes) in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.restype, fn.argtypes = restype, argtypes
    return lib


def _load_or_warn() -> Optional[ctypes.CDLL]:
    try:
        return _load()
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", b"") or b""
        _log.warning("native scan kernels unavailable, using NumPy: %s %s",
                     exc, detail.decode(errors="replace")[-500:])
        return None


#: The loaded library, or ``None`` when it could not be built or loaded.
LIB = _load_or_warn()
_obs_registry().gauge("native.available").set(int(LIB is not None))


def _address(words: np.ndarray, bits: int, first: int, count: int) -> int:
    """``words``' address, once it is checked to hold chunks ``[first,
    first + count)`` at ``bits``."""
    if (words.dtype != np.uint64 or words.ndim != 1
            or not words.flags.c_contiguous):
        raise ValueError("words must be a contiguous 1-D uint64 array")
    if first < 0 or count < 0 or words.size < (first + count) * bits:
        raise ValueError(
            f"chunks [{first}, {first + count}) at {bits} bits need "
            f"{(first + count) * bits} words, the buffer holds {words.size}")
    return words.ctypes.data


class Scan:
    """One scan's fixed arguments: column widths, the per-column
    inclusive ``[lo, hi]`` intervals and which columns are filtered,
    summed and min/max-ed (column bitsets), for :func:`scan_agg` /
    :func:`scan_group` calls over different runs and buffers."""

    __slots__ = ("bits", "filtered", "summed", "extremes", "_bits", "_lo",
                 "_hi")

    def __init__(self, bits: Sequence[int],
                 bounds: Sequence[Optional[Tuple[int, int]]],
                 summed: Sequence[int] = (),
                 extremes: Sequence[int] = ()) -> None:
        if not 0 < len(bits) <= MAX_COLUMNS:
            raise ValueError(f"a scan reads 1..{MAX_COLUMNS} columns")
        self.bits = tuple(int(b) for b in bits)
        if not all(1 <= b <= 64 for b in self.bits):
            raise ValueError(f"widths must be 1..64, got {self.bits}")
        self._bits = (ctypes.c_int32 * len(bits))(*self.bits)
        self._lo = (ctypes.c_uint64 * len(bits))(
            *(b[0] if b else 0 for b in bounds))
        self._hi = (ctypes.c_uint64 * len(bits))(
            *(b[1] if b else 0 for b in bounds))
        self.filtered = sum(1 << c for c, b in enumerate(bounds) if b)
        self.summed = sum(1 << c for c in set(summed))
        self.extremes = sum(1 << c for c in set(extremes))

    def _words(self, buffers: Sequence[np.ndarray], first: int,
               count: int):
        if len(buffers) != len(self.bits):
            raise ValueError(
                f"{len(buffers)} buffers for {len(self.bits)} columns")
        return (ctypes.c_uint64 * len(buffers))(*(
            _address(words, bits, first, count)
            for words, bits in zip(buffers, self.bits)))


def scan_agg(scan: Scan, buffers: Sequence[np.ndarray], first: int,
             count: int, valid: int) -> Tuple[int, List[Optional[tuple]]]:
    """Chunks ``[first, first + count)`` of ``buffers`` (one per column),
    of which the first ``valid`` rows hold data, filtered by ``scan``:
    ``(matched rows, per column (sum, min, max) or None)`` — ``None`` for
    a column neither summed nor min/max-ed; min and max are meaningless
    when nothing matched."""
    words = scan._words(buffers, first, count)
    out = (ctypes.c_uint64 * (4 * len(scan.bits)))()
    matched = LIB.scan_agg(words, scan._bits, first, count, valid,
                           scan._lo, scan._hi, scan.filtered, scan.summed,
                           scan.extremes, out)
    folded = scan.summed | scan.extremes
    return matched, [
        (out[4 * c] | out[4 * c + 1] << 64, out[4 * c + 2], out[4 * c + 3])
        if folded >> c & 1 else None
        for c in range(len(scan.bits))
    ]


class GroupSlots:
    """Per-key accumulators of :func:`scan_group`: ``counts`` per slot,
    and per column a 128-bit sum (low, high word pairs: column ``c``'s
    are ``sums[2 * c * slots:2 * (c + 1) * slots]``), a min and a max
    per slot (``mins[c * slots:(c + 1) * slots]``), for the columns the
    scan sums or min/max-es."""

    __slots__ = ("slots", "counts", "sums", "mins", "maxs")

    def __init__(self, scan: Scan, key: int) -> None:
        ncols = len(scan.bits)
        self.slots = slots = 1 << scan.bits[key]
        self.counts = np.zeros(slots, dtype=np.int64)
        self.sums = np.zeros(2 * ncols * slots if scan.summed else 1,
                             dtype=np.uint64)
        size = ncols * slots if scan.extremes else 1
        self.mins = np.full(size, np.iinfo(np.uint64).max, dtype=np.uint64)
        self.maxs = np.zeros(size, dtype=np.uint64)


def scan_group(scan: Scan, key: int, acc: GroupSlots,
               buffers: Sequence[np.ndarray], first: int, count: int,
               valid: int) -> int:
    """:func:`scan_agg` grouped by column ``key`` (at most 16 bits wide,
    so ``acc`` has a slot per key value), accumulated into ``acc``;
    returns the matching rows of this call."""
    words = scan._words(buffers, first, count)
    return LIB.scan_group(
        words, scan._bits, first, count, valid, scan._lo, scan._hi,
        scan.filtered, key, scan.summed, scan.extremes,
        acc.counts.ctypes.data, acc.sums.ctypes.data, acc.mins.ctypes.data,
        acc.maxs.ctypes.data)


def repack(src: np.ndarray, sbits: int, dst: np.ndarray, tbits: int,
           first: int, count: int) -> Optional[Tuple[int, int]]:
    """Re-pack chunks ``[first, first + count)`` of ``src`` (``sbits``
    wide) into the same chunks of ``dst`` at ``tbits``.  ``None``, or
    ``(index, value)`` of the first element that does not fit ``tbits``
    (``dst`` then holds a prefix of the run)."""
    if not (1 <= sbits <= 64 and 1 <= tbits <= 64):
        raise ValueError(f"widths must be 1..64, got {sbits}, {tbits}")
    if not dst.flags.writeable:
        raise ValueError("dst must be writeable")
    source = _address(src, sbits, first, count)
    target = _address(dst, tbits, first, count)
    bad = ctypes.c_uint64()
    index = LIB.repack(source, sbits, target, tbits, first, count,
                       ctypes.byref(bad))
    return None if index < 0 else (index, bad.value)
