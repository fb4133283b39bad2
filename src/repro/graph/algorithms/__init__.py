"""Graph analytics algorithms over CSR smart arrays (PGX's role)."""

from .bfs import BfsResult, UNREACHED, bfs
from .connected_components import ComponentsResult, connected_components
from .degree_centrality import degree_centrality, degree_centrality_scalar
from .pagerank import (
    PageRankResult,
    pagerank,
    pagerank_scalar_iteration,
)
from .triangles import triangle_count

__all__ = [
    "BfsResult",
    "ComponentsResult",
    "PageRankResult",
    "UNREACHED",
    "bfs",
    "connected_components",
    "degree_centrality",
    "degree_centrality_scalar",
    "pagerank",
    "pagerank_scalar_iteration",
    "triangle_count",
]
