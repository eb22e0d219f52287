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
    brute_force_edges,
    index_edges,
    quicksort_edges,
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
    restricted_adjacency,
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
    "brute_force_edges",
    "build_graph",
    "greedy_grouping",
    "greedy_path_cover",
    "index_edges",
    "is_group",
    "maximal_groups",
    "middle_layer",
    "pack_mask",
    "quicksort_edges",
    "restricted_adjacency",
    "split_grouping",
    "topological_layers",
    "unpack_mask",
    "validate_grouping",
]
