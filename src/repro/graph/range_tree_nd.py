"""An m-dimensional range tree for dominance queries.

The paper indexes two attributes and verifies the rest (footnote 5: "it is
too complicated to construct a high dimensional range tree" for their C++
implementation); the generalisation it calls "straightforward" (§4.1) is
implemented here.  Each node of the level-k tree covers a contiguous run of
sorted distinct coordinate-k values and carries a level-(k+1) tree over the
points below it; the last level is a sorted array, exactly as in
:class:`repro.graph.range_tree.RangeTree2D`.

Build cost is ``O(n log^{m-1} n)``; a query decomposes each of the first
``m-1`` coordinates into ``O(log n)`` canonical nodes and binary-searches
the last, for ``O(log^m n + k)`` reporting — matching the complexities the
paper states for the plain range tree.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from ..exceptions import GraphError


@dataclass
class _LeafLevel:
    """Final dimension: point ids sorted by their last coordinate."""

    values: list[float]
    payload: list[int]

    def query(self, bound: float) -> list[int]:
        return self.payload[: bisect_right(self.values, bound)]


@dataclass
class _Node:
    max_key: float
    min_key: float
    inner: "_LevelTree | _LeafLevel"
    left: "_Node | None" = None
    right: "_Node | None" = None


@dataclass
class _LevelTree:
    """A balanced tree over one coordinate with nested next-level trees."""

    root: _Node | None

    def query(self, bounds: tuple[float, ...]) -> list[int]:
        """Report points whose coordinates are all <= the bounds."""
        if self.root is None:
            return []
        key_bound, rest = bounds[0], bounds[1:]
        result: list[int] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.min_key > key_bound:
                continue
            if node.max_key <= key_bound:
                if isinstance(node.inner, _LeafLevel):
                    result.extend(node.inner.query(rest[0]))
                else:
                    result.extend(node.inner.query(rest))
                continue
            if node.left is not None:
                stack.append(node.left)
            if node.right is not None:
                stack.append(node.right)
        return result


def _build_level(points: np.ndarray, ids: list[int], dimension: int) -> _LevelTree:
    """Build the level tree over coordinate *dimension* for the given ids."""
    m = points.shape[1]
    if not ids:
        return _LevelTree(root=None)
    keys = sorted({float(points[i, dimension]) for i in ids})
    buckets: dict[float, list[int]] = {key: [] for key in keys}
    for i in ids:
        buckets[float(points[i, dimension])].append(i)

    def build(lo: int, hi: int) -> _Node:
        covered = [i for key in keys[lo : hi + 1] for i in buckets[key]]
        if dimension == m - 2:
            order = sorted(covered, key=lambda i: float(points[i, m - 1]))
            inner: _LevelTree | _LeafLevel = _LeafLevel(
                values=[float(points[i, m - 1]) for i in order], payload=order
            )
        else:
            inner = _build_level(points, covered, dimension + 1)
        node = _Node(max_key=keys[hi], min_key=keys[lo], inner=inner)
        if lo != hi:
            mid = (lo + hi) // 2
            node.left = build(lo, mid)
            node.right = build(mid + 1, hi)
        return node

    return _LevelTree(root=build(0, len(keys) - 1))


class RangeTreeND:
    """Static m-dimensional range tree answering all-coordinates-<= queries.

    Args:
        points: ``(n, m)`` array with ``m >= 2``; point ``i`` is reported by
            index.  (For ``m == 1`` a sorted array suffices; use numpy.)
    """

    def __init__(self, points: np.ndarray) -> None:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] < 2:
            raise GraphError(
                f"points must have shape (n, m >= 2), got {points.shape}"
            )
        self._n, self._m = points.shape
        self._tree = _build_level(points, list(range(self._n)), 0)

    def __len__(self) -> int:
        return self._n

    @property
    def num_dimensions(self) -> int:
        return self._m

    def query_leq(self, bounds) -> list[int]:
        """Indices of points with ``point[k] <= bounds[k]`` for every k."""
        bounds = tuple(float(b) for b in bounds)
        if len(bounds) != self._m:
            raise GraphError(
                f"query needs {self._m} bounds, got {len(bounds)}"
            )
        return self._tree.query(bounds)


def index_edges_nd(vectors: np.ndarray) -> set[tuple[int, int]]:
    """Full-dimensional index-based graph construction.

    Indexes every attribute, so the range query returns exactly the weakly
    dominated set; only the equal-vector / strictness check remains.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise GraphError(f"vectors must be 2-D, got shape {vectors.shape}")
    if vectors.shape[1] < 2:
        # Degenerate single-attribute case: sort order is the dominance order.
        order = np.argsort(vectors[:, 0], kind="stable")
        edges: set[tuple[int, int]] = set()
        values = vectors[:, 0]
        for a_pos in range(len(order)):
            for b_pos in range(a_pos + 1, len(order)):
                lower, upper = int(order[a_pos]), int(order[b_pos])
                if values[upper] > values[lower]:
                    edges.add((upper, lower))
        return edges
    tree = RangeTreeND(vectors)
    rows = [tuple(row) for row in vectors]
    edges = set()
    for vertex in range(len(rows)):
        for candidate in tree.query_leq(rows[vertex]):
            if candidate == vertex:
                continue
            other = rows[candidate]
            # Weak dominance is guaranteed by the query; require strictness.
            if any(a > b for a, b in zip(rows[vertex], other)):
                edges.add((vertex, candidate))
    return edges
