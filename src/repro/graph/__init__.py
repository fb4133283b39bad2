"""PGX-analogue graph substrate: CSR storage, generators, algorithms.

Graphs are stored exactly as the paper describes (section 5.2): CSR
``begin``/``edge`` arrays plus reverse ``rbegin``/``redge`` arrays for
directed graphs, all backed by smart arrays so every placement and
compression configuration can be applied and measured.
"""

from .algorithms import (
    BfsResult,
    ComponentsResult,
    KCoreResult,
    k_core,
    PageRankResult,
    SsspResult,
    bfs,
    connected_components,
    degree_centrality,
    degree_centrality_scalar,
    pagerank,
    pagerank_scalar_iteration,
    random_weights,
    sssp,
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
from .loader import (
    cached_graph,
    load_edge_list,
    load_npz,
    save_edge_list,
    save_npz,
)
from .properties import DoubleProperty, IntProperty
from .utils import (
    degree_histogram,
    graph_summary,
    reverse_graph,
    subgraph,
    symmetrize,
)

__all__ = [
    "BfsResult",
    "CSRGraph",
    "ComponentsResult",
    "DoubleProperty",
    "GraphConfig",
    "KCoreResult",
    "IntProperty",
    "PageRankResult",
    "SsspResult",
    "bfs",
    "cached_graph",
    "chung_lu",
    "connected_components",
    "degree_centrality",
    "degree_centrality_scalar",
    "degree_histogram",
    "degree_statistics",
    "load_edge_list",
    "graph_summary",
    "k_core",
    "load_npz",
    "pagerank",
    "pagerank_scalar_iteration",
    "random_weights",
    "reverse_graph",
    "rmat",
    "save_edge_list",
    "save_npz",
    "sssp",
    "subgraph",
    "symmetrize",
    "triangle_count",
    "twitter_like",
    "uniform_kout",
]
