"""Parallelism and locality analyses (system S14)."""

from repro.analysis.locality import locality_score, reuse_distances, reuse_histogram
from repro.analysis.parallel import (
    LoopParallelism, outer_parallel_unit_rows, parallel_loops,
)
from repro.analysis.graph import (
    DependenceGraph, dependence_graph, distribution_plan, maximal_distribution,
)
from repro.analysis.search import SearchResult, search_loop_orders

__all__ = [
    "parallel_loops", "LoopParallelism", "outer_parallel_unit_rows",
    "reuse_distances", "reuse_histogram", "locality_score",
    "search_loop_orders", "SearchResult",
    "DependenceGraph", "dependence_graph", "distribution_plan",
    "maximal_distribution",
]
