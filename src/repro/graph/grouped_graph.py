"""The grouped graph (paper Definitions 5-6 and Eq. 5-6).

Each vertex of a :class:`GroupedGraph` is a group of pairs.  The partial
order between groups is decided from the per-attribute bounds: with
``g.l / g.u`` the smallest/largest member similarity on an attribute,

* ``g_i >= g_j`` when ``g_i.l^k >= g_j.u^k`` for every attribute ``k``;
* ``g_i >  g_j`` when additionally ``g_i.l^k > g_j.u^k`` for some ``k``

— the sufficient condition the paper proves, which makes group dominance
checkable in O(m) from the bounds alone.  Asking a group asks one randomly
chosen member pair, and the group's color applies to all members (§4.2).

Group dominance is transitive: ``g_i > g_j > g_k`` gives
``l_i >= u_j >= l_j >= u_k`` per attribute (bounds satisfy ``l <= u``
within a group) with strictness carried through, so ``g_i > g_k``.  That is
exactly the property the incremental selection machinery relies on — a
vertex's adjacency row already being its full descendant set — which is why
a :class:`GroupedGraph` reuses the same packed
:class:`~repro.graph.reachability.ReachabilityIndex` and warm-start
:class:`~repro.graph.matching.IncrementalPathCover` fast paths as the
non-grouped graph, with no special casing.

Construction does no per-group Python: the partition is kept as one flat
member array cut by offsets, validated with ``bincount`` and bounded with
one ``reduceat`` per side over the members' vectors.  Split grouping hands
its flat :class:`~repro.graph.grouping.Partition` over as it is; a list
grouping is flattened once and then takes the same path.
:class:`~repro.verify.oracles.NaiveGroupedGraph` recomputes the same
bounds with Python loops.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..data.ground_truth import Pair
from ..exceptions import GraphError
from .dag import OrderedGraph, PairGraph
from .grouping import Grouping, Partition, _gather_runs, split_partition


class GroupedGraph(OrderedGraph):
    """A graph whose vertices are groups of base-graph pairs.

    The partition is stored flat: group ``g``'s base vertices are
    ``_members[_offsets[g]:_offsets[g + 1]]``, in the order the grouping
    listed them.  Only this class reads that layout; callers ask
    :meth:`member_vertices`, :meth:`member_pairs` or :attr:`grouping`.

    Args:
        base: the non-grouped :class:`PairGraph`.
        grouping: a complete, disjoint partition of the base vertices: a
            flat :class:`~repro.graph.grouping.Partition` (as
            :func:`~repro.graph.grouping.split_partition` builds it, kept
            as given) or member lists (as
            :func:`~repro.graph.grouping.split_grouping` or
            :func:`~repro.graph.grouping.greedy_grouping` return them,
            flattened once).  Both take the same validation and bounds.

    Raises:
        GraphError: on an empty group, sizes that do not add up to the
            members, a member that is not a base vertex, a base vertex in
            two groups, or a base vertex in none.
    """

    def __init__(self, base: PairGraph, grouping: Grouping | Partition) -> None:
        if not isinstance(grouping, Partition):
            grouping = Partition.from_groups(grouping)
        members = np.asarray(grouping.members, dtype=np.int64)
        sizes = np.asarray(grouping.sizes, dtype=np.int64)
        super().__init__(num_vertices=sizes.size)
        self.base = base
        self._offsets = np.concatenate(([0], np.cumsum(sizes)))
        self._members = members
        if self._offsets[-1] != members.size:
            raise GraphError(
                f"partition sizes sum to {int(self._offsets[-1])}, "
                f"but it lists {members.size} members"
            )
        if sizes.size and sizes.min() <= 0:
            raise GraphError("grouped graph cannot contain empty groups")
        outside = (members < 0) | (members >= len(base))
        if outside.any():
            member = int(members[outside.argmax()])
            raise GraphError(f"group member {member} is not a base vertex")
        counts = np.bincount(members, minlength=len(base))
        if counts.max(initial=0) > 1:
            raise GraphError(f"base vertex {int(counts.argmax())} appears in two groups")
        covered = int(np.count_nonzero(counts))
        if covered != len(base):
            raise GraphError(f"grouping covers {covered} of {len(base)} base vertices")
        if members.size:
            values = np.take(base.vectors, members, axis=0)
            self.lower_bounds = np.minimum.reduceat(values, self._offsets[:-1], axis=0)
            self.upper_bounds = np.maximum.reduceat(values, self._offsets[:-1], axis=0)
        else:  # zero candidate pairs: keep (0, m) shapes so kernels no-op
            self.lower_bounds = base.vectors[:0].copy()
            self.upper_bounds = base.vectors[:0].copy()
        self._group_of_base = np.empty(len(base), dtype=np.int64)
        self._group_of_base[members] = np.repeat(np.arange(sizes.size), sizes)

    @property
    def grouping(self) -> Grouping:
        """The partition as a fresh list of member lists, one per group."""
        return Partition(self._members, self.group_sizes()).groups()

    @property
    def num_attributes(self) -> int:
        return self.base.num_attributes

    def _dominance_operands(self) -> tuple[np.ndarray, np.ndarray]:
        # Group g_i > g_j iff lower(g_i) >= upper(g_j) with a strict attribute
        # (Eqs. 5-6) — exactly the blocked kernel's operand form.
        return self.lower_bounds, self.upper_bounds

    def descendant_mask(self, vertex: int) -> np.ndarray:
        self._check_vertex(vertex)
        lower = self.lower_bounds[vertex]
        mask = np.logical_and(
            (self.upper_bounds <= lower).all(axis=1),
            (self.upper_bounds < lower).any(axis=1),
        )
        mask[vertex] = False
        return mask

    def ancestor_mask(self, vertex: int) -> np.ndarray:
        self._check_vertex(vertex)
        upper = self.upper_bounds[vertex]
        mask = np.logical_and(
            (self.lower_bounds >= upper).all(axis=1),
            (self.lower_bounds > upper).any(axis=1),
        )
        mask[vertex] = False
        return mask

    def _member_slice(self, vertex: int) -> np.ndarray:
        self._check_vertex(vertex)
        return self._members[self._offsets[vertex] : self._offsets[vertex + 1]]

    def member_pairs(self, vertex: int) -> tuple[Pair, ...]:
        pairs = self.base.pairs
        return tuple(pairs[member] for member in self._member_slice(vertex).tolist())

    def member_vertices(self, vertices) -> np.ndarray:
        vertices = self._check_vertices(vertices)
        starts = self._offsets[vertices]
        return _gather_runs(self._members, starts, self._offsets[vertices + 1] - starts)

    def representative_pair(self, vertex: int, rng: np.random.Generator) -> Pair:
        """One random member pair — the question actually sent to workers."""
        group = self._member_slice(vertex)
        return self.base.pairs[int(group[int(rng.integers(0, group.size))])]

    def group_of_pair_vertex(self, base_vertex: int) -> int:
        """The group containing a base-graph vertex."""
        if not 0 <= base_vertex < len(self.base):
            raise GraphError(f"base vertex {base_vertex} out of range")
        return int(self._group_of_base[base_vertex])

    def group_sizes(self) -> np.ndarray:
        return np.diff(self._offsets)


def build_graph(
    pairs: Sequence[Pair],
    vectors: np.ndarray,
    epsilon: float | None = 0.1,
    grouping_algorithm: str = "split",
) -> OrderedGraph:
    """Convenience builder: PairGraph, optionally grouped.

    Args:
        pairs / vectors: the candidate pairs and their similarity matrix.
        epsilon: grouping threshold; ``None`` returns the raw
            :class:`PairGraph`.  Any number groups, 0 included: epsilon 0
            gives a :class:`GroupedGraph` whose groups are the identical
            vectors.
        grouping_algorithm: ``"split"`` (default, Algorithm 2, handed over
            as its flat :class:`~repro.graph.grouping.Partition`) or
            ``"greedy"`` (Appendix A).
    """
    from .grouping import GROUPING_ALGORITHMS

    base = PairGraph(pairs, vectors)
    if epsilon is None:
        return base
    try:
        algorithm = GROUPING_ALGORITHMS[grouping_algorithm]
    except KeyError:
        known = ", ".join(sorted(GROUPING_ALGORITHMS))
        raise GraphError(
            f"unknown grouping algorithm {grouping_algorithm!r}; known: {known}"
        ) from None
    if grouping_algorithm == "split":
        return GroupedGraph(base, split_partition(base.vectors, epsilon))
    return GroupedGraph(base, algorithm(base.vectors, epsilon))
