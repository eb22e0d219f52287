"""Partial-order graph machinery: construction, grouping, coloring, paths."""

from .analysis import (
    OrderStatistics,
    count_order_violations,
    order_statistics,
    transitive_reduction,
)

from .coloring import Color, ColoringState
from .construction import (
    CONSTRUCTION_ALGORITHMS,
    blocked_dominance_lists,
    blocked_edges,
    brute_force_edges,
    index_edges,
    quicksort_edges,
    vectorized_edges,
)
from .dag import OrderedGraph, PairGraph
from .grouped_graph import GroupedGraph, build_graph
from .grouping import (
    GROUPING_ALGORITHMS,
    greedy_grouping,
    is_group,
    maximal_groups,
    split_grouping,
    validate_grouping,
)
from .matching import (
    IncrementalPathCover,
    greedy_path_cover,
    hopcroft_karp,
    minimum_path_cover,
    restricted_adjacency,
)
from .partial_order import (
    ancestor_mask,
    comparable,
    descendant_mask,
    dominates,
    strictly_dominates,
)
from .range_tree import RangeTree2D
from .range_tree_nd import RangeTreeND, index_edges_nd
from .reachability import (
    ReachabilityIndex,
    pack_mask,
    unpack_mask,
)
from .topo import middle_layer, topological_layers

__all__ = [
    "CONSTRUCTION_ALGORITHMS",
    "IncrementalPathCover",
    "OrderStatistics",
    "RangeTreeND",
    "ReachabilityIndex",
    "count_order_violations",
    "index_edges_nd",
    "order_statistics",
    "transitive_reduction",
    "Color",
    "ColoringState",
    "GROUPING_ALGORITHMS",
    "GroupedGraph",
    "OrderedGraph",
    "PairGraph",
    "RangeTree2D",
    "ancestor_mask",
    "blocked_dominance_lists",
    "blocked_edges",
    "brute_force_edges",
    "build_graph",
    "comparable",
    "descendant_mask",
    "dominates",
    "greedy_grouping",
    "greedy_path_cover",
    "hopcroft_karp",
    "index_edges",
    "is_group",
    "maximal_groups",
    "middle_layer",
    "minimum_path_cover",
    "pack_mask",
    "quicksort_edges",
    "restricted_adjacency",
    "split_grouping",
    "strictly_dominates",
    "topological_layers",
    "unpack_mask",
    "validate_grouping",
    "vectorized_edges",
]
