"""Vertex grouping (paper §4.2 and Appendix A).

A *group* is a set of vertices whose similarities differ by at most
``epsilon`` on every attribute (Definition 3); a *grouping strategy*
partitions the vertex set into groups (Definition 4).  Generating the
minimum number of groups is NP-hard (Theorem 1, by reduction from unit
square cover), so the paper gives two algorithms, both implemented here:

* :func:`split_grouping` — Algorithm 2: recursively halve every attribute
  range wider than epsilon (a k-d-tree-style subdivision).  Fast
  (``O(|V| log 1/eps)``) but heuristic.  The tree is grown one level at a
  time over flat arrays, so the Python loop runs once per depth, not once
  per node; the per-node queue survives as the
  :func:`repro.verify.reference_split_grouping` oracle, whose groups it
  must reproduce exactly.
* :func:`greedy_grouping` — Appendix A: enumerate maximal groups per
  attribute with a sliding window, join them across attributes (Theorem 3:
  the join contains every maximal group), then greedily set-cover.  A
  ``ln |V|`` approximation but exponential in the attribute count, exactly
  as the paper reports (it never finishes on ACMPub).
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigurationError, GraphError

Grouping = list[list[int]]


def _validate_inputs(vectors: np.ndarray, epsilon: float) -> np.ndarray:
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise GraphError(f"vectors must be 2-D, got shape {vectors.shape}")
    if epsilon < 0:
        raise ConfigurationError(f"epsilon must be >= 0, got {epsilon}")
    return vectors


def is_group(vectors: np.ndarray, members: list[int], epsilon: float) -> bool:
    """Check Definition 3: spans of at most epsilon on every attribute."""
    if not members:
        return False
    block = vectors[members]
    spans = block.max(axis=0) - block.min(axis=0)
    return bool(np.all(spans <= epsilon + 1e-12))


def validate_grouping(vectors: np.ndarray, groups: Grouping, epsilon: float) -> None:
    """Raise unless *groups* is a complete, disjoint, epsilon-valid partition."""
    seen: set[int] = set()
    for group in groups:
        if not group:
            raise GraphError("grouping contains an empty group")
        if not is_group(vectors, group, epsilon):
            raise GraphError(f"group {group} violates the epsilon constraint")
        for member in group:
            if member in seen:
                raise GraphError(f"vertex {member} appears in two groups")
            seen.add(member)
    if seen != set(range(vectors.shape[0])):
        missing = set(range(vectors.shape[0])) - seen
        raise GraphError(f"grouping misses vertices {sorted(missing)[:10]}")


def _cell_keys(values: np.ndarray, midpoints: np.ndarray, wide: np.ndarray) -> np.ndarray:
    """Each member's child cell within its node.

    Bit ``k`` says whether the member lies strictly above the midpoint of
    its node's attribute ``k``; only the node's wide attributes are halved.
    """
    bits = (values > midpoints) & wide
    return bits @ (1 << np.arange(values.shape[1], dtype=np.int64))


def split_grouping(vectors: np.ndarray, epsilon: float) -> Grouping:
    """Algorithm 2: split any attribute whose range exceeds epsilon.

    Each tree node is a vertex subset; an attribute with span > epsilon is
    halved at the midpoint of its current range, children are the non-empty
    cells of the cross product of the halved attributes, and leaves (all
    spans <= epsilon) are the output groups.

    The tree grows one level at a time over flat arrays: ``order`` keeps
    every open node's members contiguous from ``starts``, one ``reduceat``
    per bound gives all node ranges at that depth, and one stable sort on
    (node, cell) cuts the children.  Groups come out as ascending member
    lists sorted by first member, exactly the per-node queue's output
    (kept as :func:`repro.verify.reference_split_grouping`).
    """
    vectors = _validate_inputs(vectors, epsilon)
    n = vectors.shape[0]
    if n == 0:
        return []
    if epsilon == 0:
        # Degenerate but well-defined: group identical vectors together.
        buckets: dict[tuple[float, ...], list[int]] = {}
        for vertex in range(n):
            buckets.setdefault(tuple(vectors[vertex]), []).append(vertex)
        return sorted(buckets.values())
    order = np.arange(n)
    starts = np.zeros(1, dtype=np.int64)
    leaves: list[np.ndarray] = []
    leaf_sizes: list[np.ndarray] = []
    while True:
        values = vectors[order]
        sizes = np.diff(starts, append=order.size)
        lower = np.minimum.reduceat(values, starts, axis=0)
        upper = np.maximum.reduceat(values, starts, axis=0)
        wide = upper - lower > epsilon
        splits = wide.any(axis=1)
        node = np.repeat(np.arange(starts.size), sizes)
        open_member = splits[node]
        leaves.append(order[~open_member])
        leaf_sizes.append(sizes[~splits])
        if not splits.any():
            break
        order, values, node = order[open_member], values[open_member], node[open_member]
        midpoints = (lower + upper) / 2.0
        cells = _cell_keys(values, midpoints[node], wide[node])
        # Stable, so members stay ascending within every child.
        resort = np.lexsort((cells, node))
        order, node, cells = order[resort], node[resort], cells[resort]
        boundary = (node[1:] != node[:-1]) | (cells[1:] != cells[:-1])
        starts = np.flatnonzero(np.concatenate(([True], boundary)))
    members = np.concatenate(leaves)
    bounds = np.concatenate(([0], np.cumsum(np.concatenate(leaf_sizes))))
    firsts = members[bounds[:-1]]
    flat, bounds = members.tolist(), bounds.tolist()
    return [flat[bounds[g] : bounds[g + 1]] for g in np.argsort(firsts).tolist()]


def _maximal_windows_1d(values: np.ndarray, epsilon: float) -> list[frozenset[int]]:
    """Maximal epsilon-windows over one attribute (Appendix A, m=1 case)."""
    order = np.argsort(-values, kind="stable")
    sorted_values = values[order]
    n = values.shape[0]
    windows: list[frozenset[int]] = []
    end = 0
    previous_end = -1
    for start in range(n):
        if end < start:
            end = start
        while end + 1 < n and sorted_values[start] - sorted_values[end + 1] <= epsilon + 1e-12:
            end += 1
        if end > previous_end:
            windows.append(frozenset(int(order[i]) for i in range(start, end + 1)))
            previous_end = end
        if end == n - 1:
            break
    return windows


def maximal_groups(vectors: np.ndarray, epsilon: float) -> list[frozenset[int]]:
    """All candidate maximal groups: the m-way join of Appendix A.

    Theorem 3 guarantees the join of the per-attribute maximal windows
    contains every maximal group; it may also contain non-maximal
    intersections, which the greedy cover tolerates (they simply lose to
    their supersets).
    """
    vectors = _validate_inputs(vectors, epsilon)
    n, m = vectors.shape
    if n == 0:
        return []
    candidates = _maximal_windows_1d(vectors[:, 0], epsilon)
    for attribute in range(1, m):
        windows = _maximal_windows_1d(vectors[:, attribute], epsilon)
        joined: set[frozenset[int]] = set()
        for candidate in candidates:
            for window in windows:
                intersection = candidate & window
                if intersection:
                    joined.add(intersection)
        candidates = list(joined)
    return candidates


def greedy_grouping(
    vectors: np.ndarray, epsilon: float, max_candidates: int = 2_000_000
) -> Grouping:
    """Appendix A's greedy set cover over the maximal groups.

    Args:
        max_candidates: safety valve — the join can blow up exponentially in
            the attribute count (the paper could not run Greedy on ACMPub
            within 10 hours); exceeding the cap raises
            :class:`ConfigurationError` instead of hanging.
    """
    vectors = _validate_inputs(vectors, epsilon)
    n = vectors.shape[0]
    if n == 0:
        return []
    candidates = [set(group) for group in maximal_groups(vectors, epsilon)]
    if len(candidates) > max_candidates:
        raise ConfigurationError(
            f"greedy grouping produced {len(candidates)} candidate groups "
            f"(cap {max_candidates}); use split_grouping for this input"
        )
    groups: Grouping = []
    covered: set[int] = set()
    while covered != set(range(n)):
        best = max(candidates, key=lambda group: (len(group), sorted(group)))
        if not best:
            raise GraphError("greedy grouping stalled; candidates lost coverage")
        chosen = sorted(best)
        groups.append(chosen)
        covered.update(best)
        candidates = [group - best for group in candidates]
        candidates = [group for group in candidates if group]
        if not candidates and covered != set(range(n)):
            raise GraphError("maximal-group join failed to cover all vertices")
    return sorted(groups)


GROUPING_ALGORITHMS = {
    "split": split_grouping,
    "greedy": greedy_grouping,
}
