"""Vertex grouping (paper §4.2 and Appendix A).

A *group* is a set of vertices whose similarities differ by at most
``epsilon`` on every attribute (Definition 3); a *grouping strategy*
partitions the vertex set into groups (Definition 4).  Generating the
minimum number of groups is NP-hard (Theorem 1, by reduction from unit
square cover), so the paper gives two algorithms, both implemented here:

* :func:`split_partition` — Algorithm 2: recursively halve every attribute
  range wider than epsilon (a k-d-tree-style subdivision).  Fast
  (``O(|V| log 1/eps)``) but heuristic.  The tree is grown one level at a
  time over flat arrays, so the Python loop runs once per depth, not once
  per node, and the groups come out as a flat :class:`Partition` that
  :func:`~repro.graph.grouped_graph.build_graph` hands to the grouped graph
  without a Python list per group.  :func:`split_grouping` lists the same
  groups.  The per-node queue survives as the
  :func:`repro.verify.reference_split_grouping` oracle, whose groups both
  must reproduce exactly.
* :func:`greedy_grouping` — Appendix A: enumerate maximal groups per
  attribute with a sliding window, join them across attributes (Theorem 3:
  the join contains every maximal group), then greedily set-cover.  A
  ``ln |V|`` approximation but exponential in the attribute count, exactly
  as the paper reports (it never finishes on ACMPub).
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain
from typing import NamedTuple

import numpy as np

from ..exceptions import ConfigurationError, GraphError

Grouping = list[list[int]]


class Partition(NamedTuple):
    """A grouping stored flat: every group's members in group order, and the group sizes.

    Group ``g`` is ``members[offsets[g]:offsets[g + 1]]``, where the offsets
    are the running sums of ``sizes``.  :func:`split_partition` builds one
    without a Python list per group, and
    :class:`~repro.graph.grouped_graph.GroupedGraph` takes one as it is.
    """

    members: np.ndarray
    sizes: np.ndarray

    @classmethod
    def from_groups(cls, groups: Sequence[Sequence[int]]) -> Partition:
        """Flatten a list grouping, groups and members in the order given."""
        sizes = np.fromiter(map(len, groups), dtype=np.int64, count=len(groups))
        members = np.fromiter(
            chain.from_iterable(groups), dtype=np.int64, count=int(sizes.sum())
        )
        return cls(members, sizes)

    def groups(self) -> Grouping:
        """The partition as a fresh list of member lists, one per group."""
        members = self.members.tolist()
        stops = np.cumsum(self.sizes).tolist()
        return [members[stop - size : stop] for stop, size in zip(stops, self.sizes.tolist())]


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


#: Widest vectors Split grouping halves: a cell key holds one bit per
#: attribute in an int64, and bit 63 lands on the sign, which still keeps
#: keys distinct.  A 65th attribute's bit would be lost.
_MAX_SPLIT_ATTRIBUTES = 64


def _cell_keys(values: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Each member's child cell within its node.

    Bit ``k`` says whether the member lies strictly above its node's cut on
    attribute ``k``: the midpoint of a wide attribute, ``+inf`` (nothing
    lies above it) on an attribute that is not halved.
    """
    return (values > cuts) @ (1 << np.arange(values.shape[1], dtype=np.int64))


def _child_order(node: np.ndarray, cells: np.ndarray, width: int) -> np.ndarray:
    """The stable order of members by (node, cell), as ``np.lexsort((cells, node))``.

    *node* is non-decreasing and *cells* lie in ``[0, 2**width)``, so
    ``node << width | cell`` orders exactly as the pair does; one stable
    ``argsort`` of that key, in the narrowest unsigned type that holds it
    (a radix sort up to 16 bits), replaces the two-key sort.  Where the key
    would not fit in 63 bits (very wide vectors, or a 64th attribute's
    sign bit) the two-key sort runs instead.
    """
    top = int(node[-1])
    if width < 63 and top >> (63 - width) == 0:
        key = (node << width) | cells
        dtype = np.min_scalar_type(((top + 1) << width) - 1)
        return np.argsort(key.astype(dtype), kind="stable")
    return np.lexsort((cells, node))


def _gather_runs(values: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``values[starts[i] : starts[i] + sizes[i]]`` for every ``i``, concatenated.

    Output slot ``j`` of run ``i`` reads ``starts[i]`` plus ``j`` less the
    run's first output slot: one repeated shift per run, then one gather.
    """
    shift = np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)
    return values[shift + np.arange(shift.size)]


def split_partition(vectors: np.ndarray, epsilon: float) -> Partition:
    """Algorithm 2, as a flat :class:`Partition`: split wide attribute ranges.

    Each tree node is a vertex subset; an attribute with span > epsilon is
    halved at the midpoint of its current range, children are the non-empty
    cells of the cross product of the halved attributes, and leaves (all
    spans <= epsilon) are the output groups.

    The tree grows one level at a time over flat arrays: ``order`` keeps
    every open node's members contiguous from ``starts``, one ``reduceat``
    per bound gives all node ranges at that depth, and one stable sort on a
    combined (node, cell) key (:func:`_child_order`) cuts the children.
    Groups come out ordered by first member with ascending members, exactly
    the per-node queue's output (kept as
    :func:`repro.verify.reference_split_grouping`).

    Raises:
        GraphError: on vectors with more than 64 attributes.
    """
    vectors = _validate_inputs(vectors, epsilon)
    n, m = vectors.shape
    if n == 0:
        return Partition(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    if epsilon == 0:
        # Degenerate but well-defined: group identical vectors together.
        buckets: dict[tuple[float, ...], list[int]] = {}
        for vertex in range(n):
            buckets.setdefault(tuple(vectors[vertex]), []).append(vertex)
        return Partition.from_groups(sorted(buckets.values()))
    if m > _MAX_SPLIT_ATTRIBUTES:
        raise GraphError(
            f"split grouping halves at most {_MAX_SPLIT_ATTRIBUTES} attributes, got {m}"
        )
    order = np.arange(n)
    starts = np.zeros(1, dtype=np.int64)
    leaves: list[np.ndarray] = []
    leaf_sizes: list[np.ndarray] = []
    while True:
        # np.take and np.compress copy whole rows; indexing an (n, m) array
        # with an index or mask array is several times slower for small m.
        values = np.take(vectors, order, axis=0)
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
        order, node = order[open_member], node[open_member]
        values = np.compress(open_member, values, axis=0)
        cuts = np.where(wide, (lower + upper) / 2.0, np.inf)
        cells = _cell_keys(values, np.take(cuts, node, axis=0))
        # Stable, so members stay ascending within every child.
        resort = _child_order(node, cells, m)
        order, node, cells = order[resort], node[resort], cells[resort]
        boundary = (node[1:] != node[:-1]) | (cells[1:] != cells[:-1])
        starts = np.flatnonzero(np.concatenate(([True], boundary)))
    members = np.concatenate(leaves)
    sizes = np.concatenate(leaf_sizes)
    starts = np.cumsum(sizes) - sizes
    by_first = np.argsort(members[starts])
    return Partition(_gather_runs(members, starts[by_first], sizes[by_first]), sizes[by_first])


def split_grouping(vectors: np.ndarray, epsilon: float) -> Grouping:
    """Algorithm 2: :func:`split_partition`'s groups as ascending member lists."""
    return split_partition(vectors, epsilon).groups()


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
