"""Graph analytics algorithms over CSR smart arrays (PGX's role)."""

from .bfs import BfsResult, UNREACHED, bfs
from .connected_components import ComponentsResult, connected_components
from .kcore import KCoreResult, k_core
from .degree_centrality import degree_centrality, degree_centrality_scalar
from .pagerank import (
    PageRankResult,
    pagerank,
    pagerank_scalar_iteration,
)
from .sssp import SsspResult, random_weights, sssp
from .triangles import triangle_count

__all__ = [
    "BfsResult",
    "ComponentsResult",
    "KCoreResult",
    "PageRankResult",
    "SsspResult",
    "UNREACHED",
    "bfs",
    "connected_components",
    "degree_centrality",
    "k_core",
    "degree_centrality_scalar",
    "pagerank",
    "pagerank_scalar_iteration",
    "random_weights",
    "sssp",
    "triangle_count",
]
