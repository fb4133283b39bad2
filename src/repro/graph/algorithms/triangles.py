"""Triangle counting over CSR smart arrays.

PGX's triangle listing (Sevenich et al., cited by the paper) works on a
undirected, deduplicated CSR; counting intersects sorted neighbour
lists of edge endpoints.  Included as a second random-access-heavy
workload for the adaptivity evaluation's workload diversity.
"""

from __future__ import annotations

import numpy as np

from ..csr import CSRGraph


def _undirected_adjacency(graph: CSRGraph):
    """Sorted, deduplicated undirected neighbour lists (u < v form)."""
    src, dst = graph.to_edge_list()
    src = src.astype(np.int64)
    dst = dst.astype(np.int64)
    keep = src != dst  # self-loops are never in triangles
    u = np.concatenate([src[keep], dst[keep]])
    v = np.concatenate([dst[keep], src[keep]])
    pairs = np.unique(np.stack([u, v], axis=1), axis=0)
    n = graph.n_vertices
    counts = np.bincount(pairs[:, 0], minlength=n)
    begin = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=begin[1:])
    return begin, pairs[:, 1]


def triangle_count(graph: CSRGraph) -> int:
    """Number of distinct triangles in the undirected view of ``graph``."""
    begin, adj = _undirected_adjacency(graph)
    n = graph.n_vertices
    total = 0
    for u in range(n):
        nbrs_u = adj[begin[u]:begin[u + 1]]
        higher = nbrs_u[nbrs_u > u]
        for v in higher:
            nbrs_v = adj[begin[v]:begin[v + 1]]
            higher_v = nbrs_v[nbrs_v > v]
            # Count common neighbours w with u < v < w: each triangle
            # is then counted exactly once.
            common = np.intersect1d(
                higher[higher > v], higher_v, assume_unique=True
            )
            total += int(common.size)
    return total
