"""PGX-analogue graph substrate: CSR storage, generators, algorithms.

Graphs are stored exactly as the paper describes (section 5.2): CSR
``begin``/``edge`` arrays plus reverse ``rbegin``/``redge`` arrays for
directed graphs, all backed by smart arrays so every placement and
compression configuration can be applied and measured.
"""

from .algorithms import (
    BfsResult,
    ComponentsResult,
    PageRankResult,
    bfs,
    connected_components,
    degree_centrality,
    degree_centrality_scalar,
    pagerank,
    pagerank_scalar_iteration,
    triangle_count,
)
from .csr import CSRGraph, GraphConfig
from .generators import (
    chung_lu,
    degree_statistics,
    rmat,
    twitter_like,
    uniform_kout,
)
from .properties import DoubleProperty, IntProperty

__all__ = [
    "BfsResult",
    "CSRGraph",
    "ComponentsResult",
    "DoubleProperty",
    "GraphConfig",
    "IntProperty",
    "PageRankResult",
    "bfs",
    "chung_lu",
    "connected_components",
    "degree_centrality",
    "degree_centrality_scalar",
    "degree_statistics",
    "pagerank",
    "pagerank_scalar_iteration",
    "rmat",
    "triangle_count",
    "twitter_like",
    "uniform_kout",
]
