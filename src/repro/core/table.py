"""SmartTable: a columnar table whose columns are smart arrays.

The paper frames its aggregation as "the summation of two columns" of a
database (section 5.1); this module promotes that framing to a real
API.  A :class:`SmartTable` is a set of named, equal-length integer
columns, each independently auto-compressed to its minimum width and
placed per the table's placement flags — i.e. every smart functionality
applies column-wise, exactly how column stores deploy these techniques.

Query surface (deliberately small and analytics-shaped):

* ``select(columns)`` — projection (zero-copy: shares the arrays);
* ``filter(predicate_column, fn)`` — returns matching row indices;
* ``sum(column[, rows])`` / ``min`` / ``max`` / ``mean`` — aggregates,
  optionally over a row selection;
* ``group_by_sum(key_column, value_column)`` — hash aggregation.

All results are exact (Python-integer arithmetic through the same
paths the runtime uses).  Whole-column ``sum``/``mean`` and
``group_by_sum`` run as compiled queries (:meth:`query`); the reads the
query would make slower stay direct: ``filter_range`` (a zone-map
selection), whole-column ``min``/``max`` (codec metadata) and any
aggregate over ``rows`` (an index gather).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

from . import bitpack
from .allocate import allocate
from .smart_array import SmartArray
from .zonemap import ZoneMap


class SmartTable:
    """Named equal-length integer columns over smart arrays."""

    def __init__(self, columns: Dict[str, SmartArray]):
        if not columns:
            raise ValueError("a table needs at least one column")
        lengths = {c.length for c in columns.values()}
        if len(lengths) != 1:
            raise ValueError(
                f"columns must have equal lengths, got {sorted(lengths)}"
            )
        self._columns = dict(columns)
        self._length = lengths.pop()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_arrays(
        cls,
        data: Dict[str, np.ndarray],
        compress: bool = True,
        replicated: bool = False,
        interleaved: bool = False,
        pinned: Optional[int] = None,
        allocator=None,
        codecs: Optional[Dict[str, str]] = None,
    ) -> "SmartTable":
        """Build from raw arrays; each column gets its minimum width.

        ``codecs`` maps column names to storage layouts from
        :mod:`repro.core.codecs` (``"dict"``, ``"rle"``, ``"delta"``);
        unlisted columns stay bit-packed.  Encoded columns flow through
        zone maps, scans, and queries like any other — sargable
        predicates on them evaluate in the encoded domain.

        Every column starts with a zone map, chunk synopses included,
        built from ``data`` without decoding
        (:meth:`ZoneMap.from_values`).
        """
        columns = {}
        codecs = codecs or {}
        unknown = set(codecs) - set(data)
        if unknown:
            raise KeyError(f"codecs name missing columns: {sorted(unknown)}")
        for name, values in data.items():
            values = np.ascontiguousarray(values, dtype=np.uint64)
            bits = bitpack.max_bits_needed(values) if compress else 64
            sa = allocate(
                values.size,
                replicated=replicated,
                interleaved=interleaved,
                pinned=pinned,
                bits=bits,
                values=values,
                allocator=allocator,
                codec=codecs.get(name, "bitpack"),
            )
            sa.zone_map = ZoneMap.from_values(sa, values)
            columns[name] = sa
        return cls(columns)

    # -- shape ------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self._length

    @property
    def column_names(self) -> List[str]:
        return list(self._columns)

    def column(self, name: str) -> SmartArray:
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(
                f"no column {name!r}; have {self.column_names}"
            ) from None

    def __getitem__(self, name: str) -> SmartArray:
        return self.column(name)

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __len__(self) -> int:
        return self._length

    # -- projection / selection ------------------------------------------------

    def select(self, names: Iterable[str]) -> "SmartTable":
        """Projection; shares the underlying arrays, zone maps included
        (no copy)."""
        return SmartTable({n: self.column(n) for n in names})

    def query(self) -> "Query":  # noqa: F821
        """Start a fluent query (see :mod:`repro.query`)::

            table.query().where(col("k") >= 10).sum("v").run()
        """
        from ..query import Query

        return Query(self)

    def filter(self, name: str, predicate: Callable[[np.ndarray], np.ndarray]
               ) -> np.ndarray:
        """Row indices where ``predicate(decoded_column)`` is true."""
        mask = np.asarray(predicate(self.column(name).to_numpy()), dtype=bool)
        if mask.shape != (self._length,):
            raise ValueError("predicate must return one bool per row")
        return np.nonzero(mask)[0]

    def filter_range(self, name: str, lo: int, hi: int) -> np.ndarray:
        """Row indices with ``lo <= column < hi``.

        Runs the chunked selection scan (never a full decode).  On a
        column with a zone map, non-candidate chunks are skipped
        entirely.
        """
        zone_map = self.column(name).zone_map
        if zone_map is not None:
            return zone_map.select_in_range(lo, hi)
        from .scan_ops import select_in_range

        return select_in_range(self.column(name), lo, hi)

    def build_zone_map(self, name: str, superchunk=None) -> ZoneMap:
        """The zone map of column ``name``, built first if it has none.

        A column of a :meth:`from_arrays` table has its map from ingest,
        so this decodes nothing.  A column without one gets it from one
        decode scan (:meth:`ZoneMap.build`) under the column's write
        gate, so no write lands between the scan and the attach; from
        then on every write keeps it exact.  The map serves
        :meth:`filter_range`, the query planner's predicate pushdown
        and chunk synopses, and every table sharing the column.
        """
        column = self.column(name)
        with column._write_gate:
            if column.zone_map is None:
                column.zone_map = ZoneMap.build(column,
                                                superchunk=superchunk)
            return column.zone_map

    # -- aggregates ----------------------------------------------------------------

    def _gathered(self, name: str, rows: np.ndarray) -> np.ndarray:
        """Row-selection values (random access path: ``gather_many``)."""
        return self.column(name).gather_many(
            np.ascontiguousarray(rows, dtype=np.int64)
        )

    def sum(self, name: str, rows: Optional[np.ndarray] = None) -> int:
        if rows is not None:
            return bitpack.exact_sum(self._gathered(name, rows))
        return self.query().sum(name).run().scalar()

    def min(self, name: str, rows: Optional[np.ndarray] = None) -> int:
        if rows is not None:
            values = self._gathered(name, rows)
            if values.size == 0:
                raise ValueError("min of an empty selection")
            return int(values.min())
        if self._length == 0:
            raise ValueError("min of an empty selection")
        from .scan_ops import min_max

        return min_max(self.column(name))[0]

    def max(self, name: str, rows: Optional[np.ndarray] = None) -> int:
        if rows is not None:
            values = self._gathered(name, rows)
            if values.size == 0:
                raise ValueError("max of an empty selection")
            return int(values.max())
        if self._length == 0:
            raise ValueError("max of an empty selection")
        from .scan_ops import min_max

        return min_max(self.column(name))[1]

    def mean(self, name: str, rows: Optional[np.ndarray] = None) -> float:
        n = self._length if rows is None else len(rows)
        if n == 0:
            raise ValueError("mean of an empty selection")
        return self.sum(name, rows) / n

    def group_by_sum(self, key: str, value: str) -> Dict[int, int]:
        """SELECT key, SUM(value) GROUP BY key (exact, keys ascending)."""
        result = self.query().group_by(key).sum(value).run()
        return {k: aggs[f"sum({value})"] for k, aggs in result.groups.items()}

    # -- accounting ------------------------------------------------------------

    def storage_bytes(self) -> int:
        """One replica's footprint across all columns."""
        return sum(c.storage_bytes for c in self._columns.values())

    def physical_bytes(self) -> int:
        return sum(c.physical_bytes for c in self._columns.values())

    def describe(self) -> str:
        lines = [f"SmartTable: {self._length:,} rows"]
        for name, c in self._columns.items():
            lines.append(
                f"  {name:>16}: {c.bits:2d} bits, "
                f"{c.storage_bytes / 1e6:8.2f} MB, "
                f"{c.placement.describe()}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<SmartTable rows={self._length} "
            f"columns={self.column_names}>"
        )
