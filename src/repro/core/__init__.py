"""Core smart-array abstraction (the paper's primary contribution).

Public surface:

* :func:`allocate` / :func:`allocate_like` — create smart arrays with a
  NUMA placement and a bit width;
* :class:`SmartArray` and its concrete subclasses;
* :func:`encode_array` / :class:`CodecArray` — the same arrays under a
  dictionary, run-length or delta layout (:mod:`repro.core.codecs`),
  read by the same scan operators (:func:`count_in_range`,
  :func:`select_in_range`, :func:`count_equal`, :func:`min_max`) and
  :func:`sum_range`;
* :class:`SmartArrayIterator` and its concrete subclasses;
* :mod:`repro.core.bitpack` — the raw Function 1/2/3 kernels;
* :mod:`repro.core.entry_points` — the flat handle-based API that
  language frontends call.
"""

from .allocate import (
    allocate,
    allocate_like,
    default_allocator,
    default_machine,
    machine_context,
    set_default_machine,
)
from .bitpack import (
    CHUNK_ELEMENTS,
    WORD_BITS,
    max_bits_needed,
    storage_bytes,
    words_for,
)
from .codecs import CODECS, CodecArray, encode_array
from .errors import (
    AllocationError,
    CodecError,
    CodecWriteError,
    IndexOutOfRangeError,
    InteropError,
    InvalidBitsError,
    PlacementError,
    ReplicaError,
    SmartArrayError,
    ValueOverflowError,
)
from .iterators import (
    CompressedIterator,
    SmartArrayIterator,
    Uncompressed32Iterator,
    Uncompressed64Iterator,
)
from .bitpack_fast import unpack_array_fast
from .map_api import (
    SUPERCHUNK_ELEMENTS,
    iter_spans,
    map_range,
    map_reduce,
    sum_range,
)
from .scan_ops import (
    count_equal,
    count_in_range,
    min_max,
    select_in_range,
)
from .placement import Placement, PlacementKind, STANDARD_PLACEMENTS
from .smart_map import SmartMap, SmartMapFullError
from .smart_set import SmartBag, SmartSet
from .smart_sorted import SortedSmartMap, layout_tradeoff
from .table import SmartTable
from .zonemap import ZoneMap
from .smart_array import (
    BitCompressedArray,
    SmartArray,
    Uncompressed32Array,
    Uncompressed64Array,
    concrete_class_for_bits,
)

__all__ = [
    "AllocationError",
    "BitCompressedArray",
    "CHUNK_ELEMENTS",
    "CODECS",
    "CodecArray",
    "CodecError",
    "CodecWriteError",
    "CompressedIterator",
    "encode_array",
    "SmartBag",
    "SmartSet",
    "SmartTable",
    "SortedSmartMap",
    "layout_tradeoff",
    "IndexOutOfRangeError",
    "InteropError",
    "InvalidBitsError",
    "Placement",
    "PlacementError",
    "PlacementKind",
    "ReplicaError",
    "STANDARD_PLACEMENTS",
    "SmartArray",
    "SmartMap",
    "SmartMapFullError",
    "SmartArrayError",
    "SmartArrayIterator",
    "Uncompressed32Array",
    "Uncompressed32Iterator",
    "Uncompressed64Array",
    "Uncompressed64Iterator",
    "ValueOverflowError",
    "WORD_BITS",
    "ZoneMap",
    "allocate",
    "allocate_like",
    "concrete_class_for_bits",
    "count_equal",
    "count_in_range",
    "default_allocator",
    "default_machine",
    "iter_spans",
    "SUPERCHUNK_ELEMENTS",
    "machine_context",
    "map_range",
    "map_reduce",
    "min_max",
    "max_bits_needed",
    "select_in_range",
    "sum_range",
    "unpack_array_fast",
    "set_default_machine",
    "storage_bytes",
    "words_for",
]
