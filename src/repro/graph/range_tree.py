"""A two-dimensional range tree for dominance queries (paper §4.1).

The paper indexes the first two similarity attributes in a 2-D range search
tree: a first-level balanced tree over ``s^1`` whose nodes each carry a
second-level structure over ``s^2``.  Reporting the child set ``C(p)`` is a
"left-bottom" query: all points with ``x <= s^1_p`` and ``y <= s^2_p``.

This implementation keeps the textbook first level (a balanced binary tree
over the distinct x values, built bottom-up) and uses a sorted y-array as
each node's second-level structure — query-equivalent to a second-level tree
(binary search replaces tree descent) and simpler.  Queries decompose the x
constraint into O(log n) canonical nodes and binary-search each node's
y-array, giving ``O(log^2 n + k)`` per query.  §4.1 notes that one
binary search per query would shave a log factor; the Fig. 20 benchmark
times this tree, so that refinement is not implemented.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import GraphError


@dataclass
class _Node:
    """A first-level node covering a contiguous run of sorted x values."""

    lo: int  # inclusive index into the sorted distinct-x array
    hi: int  # inclusive
    max_x: float  # largest x under this node
    ys: list[float] = field(default_factory=list)  # sorted y values under node
    payload: list[int] = field(default_factory=list)  # point ids, y-sorted
    left: "_Node | None" = None
    right: "_Node | None" = None


class RangeTree2D:
    """Static 2-D range tree answering "all points with x <= qx and y <= qy".

    Args:
        points: ``(n, 2)`` array of (x, y) coordinates; point ``i`` is
            reported by its index.
    """

    def __init__(self, points: np.ndarray) -> None:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 2:
            raise GraphError(f"points must have shape (n, 2), got {points.shape}")
        self._n = points.shape[0]
        if self._n == 0:
            self._root = None
            self._xs: list[float] = []
            return
        xs = points[:, 0]
        self._xs = sorted(set(float(x) for x in xs))
        x_rank = {x: rank for rank, x in enumerate(self._xs)}
        # Bucket point ids by x rank, each bucket sorted by y.
        buckets: list[list[int]] = [[] for _ in self._xs]
        for index in range(self._n):
            buckets[x_rank[float(points[index, 0])]].append(index)
        for bucket in buckets:
            bucket.sort(key=lambda i: float(points[i, 1]))
        self._root = self._build(0, len(self._xs) - 1, buckets, points)

    def _build(
        self, lo: int, hi: int, buckets: list[list[int]], points: np.ndarray
    ) -> _Node:
        node = _Node(lo=lo, hi=hi, max_x=self._xs[hi])
        if lo == hi:
            node.payload = list(buckets[lo])
            node.ys = [float(points[i, 1]) for i in node.payload]
            return node
        mid = (lo + hi) // 2
        node.left = self._build(lo, mid, buckets, points)
        node.right = self._build(mid + 1, hi, buckets, points)
        # Merge the children's y-sorted payloads (classic bottom-up build).
        node.payload = self._merge(node.left, node.right)
        node.ys = [float(points[i, 1]) for i in node.payload]
        return node

    @staticmethod
    def _merge(left: _Node, right: _Node) -> list[int]:
        merged: list[int] = []
        i = j = 0
        lys, rys = left.ys, right.ys
        while i < len(lys) and j < len(rys):
            if lys[i] <= rys[j]:
                merged.append(left.payload[i])
                i += 1
            else:
                merged.append(right.payload[j])
                j += 1
        merged.extend(left.payload[i:])
        merged.extend(right.payload[j:])
        return merged

    def query_leq(self, qx: float, qy: float) -> list[int]:
        """Indices of all points with ``x <= qx`` and ``y <= qy``."""
        if self._root is None:
            return []
        # Canonical decomposition of the x constraint.
        result: list[int] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if self._xs[node.lo] > qx:
                continue  # entire subtree exceeds qx
            if node.max_x <= qx:
                # Whole subtree qualifies on x; filter on y by binary search.
                cutoff = bisect_right(node.ys, qy)
                result.extend(node.payload[:cutoff])
                continue
            if node.left is not None:
                stack.append(node.left)
            if node.right is not None:
                stack.append(node.right)
        return result

    def __len__(self) -> int:
        return self._n
