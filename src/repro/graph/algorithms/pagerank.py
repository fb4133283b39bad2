"""PageRank over CSR smart arrays (the paper's Figures 1 and 12 workload).

The paper's PGX PageRank: "several iterations that calculate and refine
the ranks of the vertices until a convergence condition is satisfied.
In an iteration, the algorithm loops over the vertices.  For each
vertex, it loops over the reverse edges to incorporate the neighbours'
ranks into the vertex's rank" (section 5.2).  It uses ``rbegin`` /
``redge`` plus two 64-bit vertex properties: the ranks (doubles) and the
out-degrees.

Defaults reproduce the paper's experiment: damping 0.85, convergence
when the L1 rank delta drops below 1e-3 (the Twitter run takes 15
iterations in the paper).

Dangling vertices (out-degree 0) distribute their rank uniformly — the
standard correction; the rank vector then stays a probability
distribution, which the tests assert as an invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ...core.placement import Placement
from ..csr import CSRGraph
from ..properties import DoubleProperty, IntProperty


@dataclass(frozen=True)
class PageRankResult:
    """Converged ranks plus run metadata the evaluation reports."""

    ranks: DoubleProperty
    iterations: int
    converged: bool
    deltas: List[float]

    def top_vertices(self, k: int = 10) -> np.ndarray:
        """Vertex ids of the ``k`` highest ranks (descending)."""
        r = self.ranks.to_numpy()
        k = min(k, r.size)
        return np.argsort(r)[::-1][:k]


def pagerank(
    graph: CSRGraph,
    damping: float = 0.85,
    tolerance: float = 1e-3,
    max_iterations: int = 100,
    out_degrees: Optional[IntProperty] = None,
    rank_placement: Placement = Placement.interleaved(),
    allocator=None,
) -> PageRankResult:
    """Power-iteration PageRank using the reverse-edge arrays.

    ``out_degrees`` may be passed pre-materialized (the paper stores it
    as a vertex property array, possibly bit-compressed to 22 bits);
    otherwise it is computed from ``begin``.
    """
    if not graph.has_reverse:
        raise ValueError("pagerank needs reverse edges")
    if not 0.0 < damping < 1.0:
        raise ValueError(f"damping must be in (0, 1), got {damping}")
    if tolerance <= 0 or max_iterations < 1:
        raise ValueError("tolerance must be > 0 and max_iterations >= 1")

    n = graph.n_vertices
    if n == 0:
        raise ValueError("graph has no vertices")

    # Decode the graph arrays once per run; each iteration then streams
    # them, mirroring the paper's per-iteration array traffic.
    rbegin = graph.rbegin.to_numpy().astype(np.int64)
    redge = graph.redge.to_numpy().astype(np.int64)
    if out_degrees is not None:
        out_deg = out_degrees.to_numpy().astype(np.float64)
    else:
        out_deg = graph.out_degrees().astype(np.float64)
    dangling = out_deg == 0
    safe_out = np.where(dangling, 1.0, out_deg)

    ranks = np.full(n, 1.0 / n, dtype=np.float64)
    deltas: List[float] = []
    converged = False
    iterations = 0
    base = (1.0 - damping) / n

    for iterations in range(1, max_iterations + 1):
        contrib = ranks / safe_out
        # Gather each incoming neighbour's contribution (the loop over
        # reverse edges), then segment-sum per target vertex.
        incoming = np.add.reduceat(
            np.concatenate([contrib[redge], [0.0]]), rbegin[:-1]
        ) if redge.size else np.zeros(n)
        # reduceat quirk: empty segments copy the next value; zero them.
        empty = rbegin[1:] == rbegin[:-1]
        incoming[empty] = 0.0
        dangling_mass = ranks[dangling].sum() / n
        new_ranks = base + damping * (incoming + dangling_mass)
        delta = float(np.abs(new_ranks - ranks).sum())
        deltas.append(delta)
        ranks = new_ranks
        if delta < tolerance:
            converged = True
            break

    rank_prop = DoubleProperty.from_values(
        ranks, placement=rank_placement, allocator=allocator
    )
    return PageRankResult(
        ranks=rank_prop,
        iterations=iterations,
        converged=converged,
        deltas=deltas,
    )


def pagerank_scalar_iteration(
    graph: CSRGraph,
    ranks: np.ndarray,
    out_deg: np.ndarray,
    damping: float = 0.85,
) -> np.ndarray:
    """One PageRank iteration through the scalar smart-array API.

    The reference formulation the paper describes — per vertex, loop
    over the reverse neighbour list with ``get`` — used in tests to
    validate the vectorized kernel edge for edge.
    """
    n = graph.n_vertices
    new_ranks = np.zeros(n, dtype=np.float64)
    dangling_mass = float(ranks[out_deg == 0].sum()) / n
    base = (1.0 - damping) / n
    for v in range(n):
        total = 0.0
        for u in graph.in_neighbors(v):
            u = int(u)
            total += ranks[u] / (out_deg[u] if out_deg[u] else 1.0)
        new_ranks[v] = base + damping * (total + dangling_mass)
    return new_ranks
