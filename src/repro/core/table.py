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
        self._zone_maps: Dict[str, "ZoneMap"] = {}  # noqa: F821

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

        Every column starts with a current zone map, chunk synopses
        included, built from ``data`` without decoding
        (:meth:`index_values`).
        """
        columns = {}
        codecs = codecs or {}
        unknown = set(codecs) - set(data)
        if unknown:
            raise KeyError(f"codecs name missing columns: {sorted(unknown)}")
        arrays = {}
        for name, values in data.items():
            values = arrays[name] = np.ascontiguousarray(values,
                                                         dtype=np.uint64)
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
            columns[name] = sa
        table = cls(columns)
        table.index_values(arrays, allocator=allocator)
        return table

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
        """Projection; shares the underlying arrays (no copy)."""
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

        Runs the chunked selection scan (never a full decode).  With a
        current zone map cached by :meth:`build_zone_map`,
        non-candidate chunks are skipped entirely.
        """
        zone_map = self.zone_map(name)
        if zone_map is not None:
            return zone_map.select_in_range(lo, hi)
        from .scan_ops import select_in_range

        return select_in_range(self.column(name), lo, hi)

    # -- zone-map cache ----------------------------------------------------

    def index_values(self, values: Dict[str, np.ndarray],
                     allocator=None) -> None:
        """Cache a zone map for each named column from the values it
        holds (:meth:`ZoneMap.from_values`: reductions over ``values``,
        no decode).  ``values[name]`` must be the column's contents."""
        from .zonemap import ZoneMap

        for name, column_values in values.items():
            self._zone_maps[name] = ZoneMap.from_values(
                self.column(name), column_values, allocator=allocator)

    def build_zone_map(self, name: str, allocator=None,
                       superchunk=None) -> "ZoneMap":  # noqa: F821
        """Ensure a current zone map for ``name`` and return it.

        A current cached map is returned as is, nothing decoded; a
        missing or stale one (the column was written or migrated since,
        see :meth:`zone_map`) is rebuilt by one decode scan
        (:meth:`ZoneMap.build`) and cached.  Cached maps are consulted
        by :meth:`filter_range` and by the query planner's predicate
        pushdown and chunk synopses.
        """
        from .zonemap import ZoneMap

        zm = self.zone_map(name)
        if zm is None:
            zm = ZoneMap.build(self.column(name), allocator=allocator,
                               superchunk=superchunk)
            self._zone_maps[name] = zm
        return zm

    def zone_map(self, name: str):
        """The cached zone map for ``name``, or ``None``.

        A map built against an older storage generation of the column
        (i.e. before a live migration), or before an in-place write to
        it, is dropped, not returned: the planner must never prune or
        cover chunks against metadata that no longer describes the
        storage it will decode.
        """
        column = self.column(name)
        zm = self._zone_maps.get(name)
        if zm is not None and (
            zm.built_epoch != getattr(column, "generation_epoch", 0)
            or zm.built_write_epoch != getattr(column, "write_epoch", 0)
        ):
            del self._zone_maps[name]
            return None
        return zm

    def invalidate_zone_maps(self, name: Optional[str] = None) -> None:
        """Drop the cached zone map for ``name`` (or all of them)."""
        if name is None:
            self._zone_maps.clear()
        else:
            self._zone_maps.pop(name, None)

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
