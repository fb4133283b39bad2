"""CSR graphs over smart arrays (the paper's PGX data layout, section 5.2).

PGX stores a graph in compressed sparse row format:

* ``begin`` — 64-bit array of length ``V+1``; ``begin[v] .. begin[v+1]``
  delimits vertex ``v``'s neighbour list;
* ``edge`` — 32-bit array of length ``E`` concatenating all neighbour
  lists (forward edges), in ascending vertex order;
* ``rbegin`` / ``redge`` — the same structure for reverse edges of a
  directed graph.

All four arrays are smart arrays here, so every placement/compression
configuration of section 5.2 can be applied:  "U" keeps the original
64/32-bit widths, "V" compresses the begin arrays to the minimum bits
for edge IDs, and "V+E" additionally compresses the edge arrays to the
minimum bits for vertex IDs (Figure 12's variants).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..core import bitpack
from ..core.allocate import allocate
from ..core.placement import Placement
from ..core.smart_array import SmartArray
from ..numa.allocator import NumaAllocator


@dataclass(frozen=True)
class GraphConfig:
    """One placement/compression configuration for a graph's arrays.

    ``vertex_bits`` applies to the ``begin``/``rbegin`` arrays (entries
    are edge-array offsets, so they need enough bits for ``E``);
    ``edge_bits`` applies to ``edge``/``redge`` (entries are vertex IDs,
    needing enough bits for ``V``).  ``None`` means "minimum required",
    the paper's "least number of bits" policy.
    """

    placement: Placement = Placement.os_default()
    vertex_bits: Optional[int] = 64
    edge_bits: Optional[int] = 32

    @classmethod
    def uncompressed(cls, placement: Placement = Placement.os_default()):
        """The paper's "U": original 64-bit begin / 32-bit edge arrays."""
        return cls(placement=placement, vertex_bits=64, edge_bits=32)

    @classmethod
    def compressed_vertices(cls, placement: Placement = Placement.os_default()):
        """The paper's "V": begin arrays at minimum width."""
        return cls(placement=placement, vertex_bits=None, edge_bits=32)

    @classmethod
    def compressed_all(cls, placement: Placement = Placement.os_default()):
        """The paper's "V+E": begin and edge arrays at minimum width."""
        return cls(placement=placement, vertex_bits=None, edge_bits=None)


def _build_csr(
    src: np.ndarray, dst: np.ndarray, n_vertices: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Sort an edge list into (begin, edge) CSR arrays.

    Neighbour lists are sorted ascending within each vertex, matching
    PGX's layout ("using vertex IDs, in ascending order", section 5.2);
    this also makes the representation canonical, so rebuilding a graph
    from its own edge list reproduces identical arrays.
    """
    order = np.lexsort((dst, src))
    sorted_dst = dst[order]
    counts = np.bincount(src, minlength=n_vertices)
    begin = np.zeros(n_vertices + 1, dtype=np.uint64)
    np.cumsum(counts, out=begin[1:])
    return begin, sorted_dst.astype(np.uint64)


class CSRGraph:
    """A directed graph in CSR form, arrays backed by smart arrays."""

    def __init__(
        self,
        begin: SmartArray,
        edge: SmartArray,
        rbegin: Optional[SmartArray] = None,
        redge: Optional[SmartArray] = None,
    ) -> None:
        if begin.length < 1:
            raise ValueError("begin array must have length >= 1 (V+1 entries)")
        self.begin = begin
        self.edge = edge
        self.rbegin = rbegin
        self.redge = redge
        self.n_vertices = begin.length - 1
        self.n_edges = edge.length
        if begin.get(self.n_vertices) != self.n_edges:
            raise ValueError(
                "begin[V] must equal the edge count "
                f"({begin.get(self.n_vertices)} != {self.n_edges})"
            )
        if (rbegin is None) != (redge is None):
            raise ValueError("rbegin and redge must be provided together")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        src,
        dst,
        n_vertices: Optional[int] = None,
        config: Optional[GraphConfig] = None,
        reverse: bool = True,
        allocator: Optional[NumaAllocator] = None,
    ) -> "CSRGraph":
        """Build a graph from an edge list under ``config``.

        ``reverse=True`` also builds the reverse-edge arrays, which
        PageRank needs (the paper's PageRank loops over reverse edges).
        """
        src = np.ascontiguousarray(src, dtype=np.int64)
        dst = np.ascontiguousarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("src and dst must have the same shape")
        if src.size and (src.min() < 0 or dst.min() < 0):
            raise ValueError("vertex ids must be non-negative")
        if n_vertices is None:
            n_vertices = int(max(src.max(initial=-1), dst.max(initial=-1))) + 1
        if src.size and max(int(src.max()), int(dst.max())) >= n_vertices:
            raise ValueError("edge endpoint exceeds n_vertices")
        config = config or GraphConfig()

        begin_np, edge_np = _build_csr(src, dst, n_vertices)
        arrays = {"begin": begin_np, "edge": edge_np}
        if reverse:
            rbegin_np, redge_np = _build_csr(dst, src, n_vertices)
            arrays["rbegin"] = rbegin_np
            arrays["redge"] = redge_np

        n_edges = int(edge_np.size)
        vertex_bits = config.vertex_bits or max(1, int(n_edges).bit_length())
        edge_bits = config.edge_bits or max(1, int(n_vertices - 1).bit_length())
        bitpack.check_bits(vertex_bits)
        bitpack.check_bits(edge_bits)

        def smart(name: str, data: np.ndarray, bits: int) -> SmartArray:
            p = config.placement
            sa = allocate(
                data.size,
                replicated=p.is_replicated,
                interleaved=p.is_interleaved,
                pinned=p.socket if p.is_pinned else None,
                bits=bits,
                allocator=allocator,
            )
            sa.fill(data)
            return sa

        return cls(
            begin=smart("begin", arrays["begin"], vertex_bits),
            edge=smart("edge", arrays["edge"], edge_bits),
            rbegin=smart("rbegin", arrays["rbegin"], vertex_bits)
            if reverse
            else None,
            redge=smart("redge", arrays["redge"], edge_bits)
            if reverse
            else None,
        )

    def reconfigure(
        self,
        config: GraphConfig,
        allocator: Optional[NumaAllocator] = None,
    ) -> "CSRGraph":
        """The same graph under a different placement/compression.

        This is how the evaluation sweeps configurations (Fig. 11/12):
        decode the current arrays and re-allocate them under ``config``.
        """
        src, dst = self.to_edge_list()
        return CSRGraph.from_edges(
            src,
            dst,
            n_vertices=self.n_vertices,
            config=config,
            reverse=self.has_reverse,
            allocator=allocator,
        )

    # -- queries -------------------------------------------------------------

    @property
    def has_reverse(self) -> bool:
        return self.rbegin is not None

    def out_degree(self, v: int) -> int:
        """Forward degree: two consecutive ``begin`` reads (section 5.2)."""
        return self.begin.get(v + 1) - self.begin.get(v)

    def in_degree(self, v: int) -> int:
        if not self.has_reverse:
            raise ValueError("graph was built without reverse edges")
        return self.rbegin.get(v + 1) - self.rbegin.get(v)

    def neighbors(self, v: int) -> np.ndarray:
        """Forward neighbour list of ``v``."""
        start = self.begin.get(v)
        end = self.begin.get(v + 1)
        if start == end:
            return np.empty(0, dtype=np.uint64)
        return self.edge.gather_many(np.arange(start, end, dtype=np.int64))

    def in_neighbors(self, v: int) -> np.ndarray:
        if not self.has_reverse:
            raise ValueError("graph was built without reverse edges")
        start = self.rbegin.get(v)
        end = self.rbegin.get(v + 1)
        if start == end:
            return np.empty(0, dtype=np.uint64)
        return self.redge.gather_many(np.arange(start, end, dtype=np.int64))

    def out_degrees(self) -> np.ndarray:
        """All forward degrees (vectorized ``begin`` differencing)."""
        begin = self.begin.to_numpy()
        return (begin[1:] - begin[:-1]).astype(np.uint64)

    def in_degrees(self) -> np.ndarray:
        if not self.has_reverse:
            raise ValueError("graph was built without reverse edges")
        rbegin = self.rbegin.to_numpy()
        return (rbegin[1:] - rbegin[:-1]).astype(np.uint64)

    def to_edge_list(self) -> Tuple[np.ndarray, np.ndarray]:
        """Decode back to (src, dst) arrays."""
        begin = self.begin.to_numpy()
        dst = self.edge.to_numpy()
        src = np.repeat(
            np.arange(self.n_vertices, dtype=np.uint64),
            (begin[1:] - begin[:-1]).astype(np.int64),
        )
        return src, dst

    # -- memory accounting (Figure 12's space formula) -------------------------

    def memory_bytes(self) -> int:
        """Physical bytes of all graph arrays (replicas included).

        Mirrors the paper's space formula
        ``2*bits_edges*V + 2*bits_vertices*E`` for directed graphs —
        begin/rbegin at vertex_bits over V entries, edge/redge at
        edge_bits over E entries — generalized to actual chunked
        storage sizes.
        """
        total = self.begin.physical_bytes + self.edge.physical_bytes
        if self.has_reverse:
            total += self.rbegin.physical_bytes + self.redge.physical_bytes
        return total

    def describe(self) -> str:
        return (
            f"CSRGraph(V={self.n_vertices:,}, E={self.n_edges:,}, "
            f"begin@{self.begin.bits}b, edge@{self.edge.bits}b, "
            f"placement={self.begin.placement.describe()}, "
            f"reverse={self.has_reverse})"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.describe()}>"
