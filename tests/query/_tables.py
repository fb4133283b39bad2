"""Tables over arrays no table has indexed, for tests that choose which
columns carry a zone map (``SmartTable.build_zone_map``)."""

import numpy as np

from repro.core import allocate, bitpack
from repro.core.table import SmartTable


def unindexed_table(data, replicated=False, codecs=None) -> SmartTable:
    """``SmartTable.from_arrays(data, ...)`` without the ingest zone
    maps: the same minimum-width (or ``codecs``) columns, none mapped."""
    codecs = codecs or {}
    columns = {}
    for name, values in data.items():
        values = np.ascontiguousarray(values, dtype=np.uint64)
        columns[name] = allocate(
            values.size, bits=bitpack.max_bits_needed(values),
            values=values, replicated=replicated,
            codec=codecs.get(name, "bitpack"))
    return SmartTable(columns)
