"""The three graph-construction algorithms of §4.1.

All three compute the same output — the full strict-dominance edge set
``{(u, v) : u > v}`` over the similarity vectors — differing only in how
much comparison work they avoid:

* :func:`brute_force_edges` — compare every ordered pair, O(|V|^2 m).
* :func:`quicksort_edges` — the paper's partition recursion: comparing every
  vertex against a pivot splits the rest into parents P, children C and
  incomparables U; all P x C edges follow by transitivity without any
  comparison, and the recursion continues on P+U and C+U.  Following the
  paper's footnote, pairs inside U are compared in only one branch.
* :func:`index_edges` — the paper's range-tree method: index two attributes
  in a 2-D range tree, fetch each vertex's candidate children with a
  left-bottom query, and verify the remaining attributes (the paper's own
  heuristic for m > 2, footnote 5).

:func:`vectorized_edges` is the per-vertex numpy reference used as ground
truth in tests; it is not one of the paper's algorithms.
The production kernel is one private generator of ``(B, n)`` dominance
tiles (``n / B`` Python iterations instead of ``n``, bounded temporaries),
cut into lists by :func:`blocked_dominance_lists`, into edges by
:func:`blocked_edges`, and packed into bits by
:meth:`repro.graph.reachability.ReachabilityIndex.build`.  The Fig. 20
benchmark times the three faithful paper implementations.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from ..exceptions import GraphError
from .range_tree import RangeTree2D

Edge = tuple[int, int]


def _validate(vectors: np.ndarray) -> np.ndarray:
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise GraphError(f"vectors must be 2-D, got shape {vectors.shape}")
    return vectors


def vectorized_edges(vectors: np.ndarray) -> set[Edge]:
    """Reference edge set via per-vertex numpy broadcasting.

    One Python-level iteration (and two full ``(n, m)`` comparisons) per
    vertex; kept as the scalar reference the blocked kernel is tested
    against.  Production code should call :func:`blocked_edges`.
    """
    vectors = _validate(vectors)
    edges: set[Edge] = set()
    for vertex in range(vectors.shape[0]):
        row = vectors[vertex]
        dominated = np.logical_and(
            (vectors <= row).all(axis=1), (vectors < row).any(axis=1)
        )
        for child in np.flatnonzero(dominated):
            edges.add((vertex, int(child)))
    return edges


#: Row-tile height of the blocked dominance kernel.  Chosen so one boolean
#: ``(B, n)`` accumulator stays comfortably inside L2/L3 for the pair counts
#: the paper's datasets produce (n up to a few hundred thousand).  It must
#: be a multiple of 8: the reachability build packs each tile's columns
#: into whole ancestor bytes, and starts its upper-triangle tiles on a byte.
DEFAULT_BLOCK_SIZE = 256


def linear_extension(dominant: np.ndarray) -> np.ndarray:
    """Vertex order in which every dominator comes before what it dominates.

    The rows of the dominant operand in descending lexicographic order
    (ties by vertex id).  The order is exact: ``u > v`` implies
    ``dominant[u] >= dominant[v]`` with one attribute strictly greater, for
    pair graphs (the operand is the similarity matrix) and grouped graphs
    (the lower bounds: ``lower[u] >= upper[v] >= lower[v]``, strictly on
    some attribute) alike.  A float row sum is not: two sums can round to
    the same value.
    """
    dominant = _validate(dominant)
    if dominant.shape[1] == 0:
        return np.arange(dominant.shape[0])
    # lexsort's last key is the primary one; negating keeps ties tied.
    return np.lexsort(-dominant.T[::-1])


def _joint_row_ranks(
    dominant: np.ndarray, dominated: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Dense ranks of the operands' rows over both: equal ranks iff ``==``.

    Rows compare with ``==`` (so ``-0.0`` equals ``0.0``) after one
    lexicographic sort of the stacked operands.
    """
    stacked = np.concatenate([dominant, dominated])
    order = (
        np.lexsort(stacked.T[::-1]) if stacked.shape[1] else np.arange(len(stacked))
    )
    ordered = stacked[order]
    fresh = np.ones(len(stacked), dtype=bool)
    fresh[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    ranks = np.empty(len(stacked), dtype=np.intp)
    ranks[order] = np.cumsum(fresh)
    return ranks[: len(dominant)], ranks[len(dominant) :]


def _dominance_tiles(
    dominant: np.ndarray,
    dominated: np.ndarray,
    block_size: int = DEFAULT_BLOCK_SIZE,
    exclude_diagonal: bool = True,
    upper_triangle: bool = False,
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(start, tile)`` for consecutive row blocks: the one tile loop.

    ``tile[i, j]`` is True iff ``dominant[start + i] >= dominated[first + j]``
    on every attribute and ``>`` on at least one, where the column start
    ``first`` is 0, or ``start`` with *upper_triangle* (the rows are in a
    linear extension, so nothing left of the diagonal can be set).  Given
    ``>=`` everywhere, ``>`` somewhere holds exactly when the two rows
    differ, so one comparison of joint row ranks replaces the per-attribute
    ``>`` passes.  Each attribute is read as a contiguous row of the
    transposed operands (a strided ``dominated[:, k]`` costs two to three
    times as much), and the tiles reuse two buffers, so a tile is only
    valid until the next one is drawn.
    """
    dominant = _validate(dominant)
    dominated = _validate(dominated)
    if dominant.shape != dominated.shape:
        raise GraphError(
            f"dominant/dominated shapes differ: {dominant.shape} vs {dominated.shape}"
        )
    if block_size < 1:
        raise GraphError(f"block_size must be >= 1, got {block_size}")
    n, m = dominant.shape
    rows_by_attribute = np.ascontiguousarray(dominant.T)
    columns_by_attribute = np.ascontiguousarray(dominated.T)
    row_ranks, column_ranks = _joint_row_ranks(dominant, dominated)
    height = min(block_size, n)
    buffers = np.empty((2, height * n), dtype=bool)
    for start in range(0, n, block_size):
        stop = min(start + block_size, n)
        first = start if upper_triangle else 0
        shape = (stop - start, n - first)
        all_ge, compared = (buffer[: shape[0] * shape[1]].reshape(shape) for buffer in buffers)
        all_ge.fill(True)
        for k in range(m):
            block = rows_by_attribute[k, start:stop, None]
            all_ge &= np.greater_equal(
                block, columns_by_attribute[k, first:], out=compared
            )
        all_ge &= np.not_equal(
            row_ranks[start:stop, None], column_ranks[first:], out=compared
        )
        if exclude_diagonal:
            all_ge[np.arange(stop - start), np.arange(start - first, stop - first)] = False
        yield start, all_ge


def blocked_dominance_lists(
    dominant: np.ndarray,
    dominated: np.ndarray,
    block_size: int = DEFAULT_BLOCK_SIZE,
    exclude_diagonal: bool = True,
) -> list[np.ndarray]:
    """Children lists of the strict-dominance relation, computed in tiles.

    ``result[u]`` holds every ``v`` with ``dominant[u] >= dominated[v]`` on
    all attributes and ``>`` on at least one — the general form shared by the
    per-pair graph (*dominant* = *dominated* = the similarity matrix) and the
    grouped graph (*dominant* = group lower bounds, *dominated* = group upper
    bounds, Eqs. 5-6).

    Instead of one Python iteration per vertex, rows are processed in
    ``(B, n)`` tiles of *block_size* rows, bounding temporary memory at
    ``O(B * n)`` regardless of ``m`` while cutting the Python-loop overhead
    by ``B``.

    Args:
        dominant / dominated: ``(n, m)`` float arrays, row-aligned.
        block_size: tile height (rows of *dominant* per iteration).
        exclude_diagonal: drop ``u == v`` matches (self-dominance of a
            degenerate single-point group); pair graphs never produce them
            because strict dominance already excludes equal rows.
    """
    children: list[np.ndarray] = []
    for _, tile in _dominance_tiles(dominant, dominated, block_size, exclude_diagonal):
        children.extend(map(np.flatnonzero, tile))
    return children


def blocked_edges(vectors: np.ndarray, block_size: int = DEFAULT_BLOCK_SIZE) -> set[Edge]:
    """Dominance edge set via the blocked kernel (production fast path).

    Produces exactly the edge set of :func:`vectorized_edges` /
    :func:`brute_force_edges` (enforced by property tests) with ``n / B``
    Python-level iterations instead of ``n``.
    """
    edges: set[Edge] = set()
    for start, tile in _dominance_tiles(vectors, vectors, block_size):
        rows, cols = np.nonzero(tile)
        edges.update(zip((rows + start).tolist(), cols.tolist()))
    return edges


def _compare_rows(row_i, row_j) -> int:
    """1 if row_i strictly dominates row_j, -1 for the reverse, else 0.

    Single pass with early exit once the rows are incomparable; shared by
    all three construction algorithms so their measured differences come
    from the algorithms, not the comparator.
    """
    i_geq = j_geq = True
    for a, b in zip(row_i, row_j):
        if a > b:
            j_geq = False
            if not i_geq:
                return 0
        elif b > a:
            i_geq = False
            if not j_geq:
                return 0
    if i_geq and not j_geq:
        return 1
    if j_geq and not i_geq:
        return -1
    return 0


def brute_force_edges(vectors: np.ndarray) -> set[Edge]:
    """Compare every pair of vertices directly (the §4.1 baseline)."""
    vectors = _validate(vectors)
    rows = [tuple(row) for row in vectors]
    edges: set[Edge] = set()
    n = len(rows)
    for i in range(n):
        row_i = rows[i]
        for j in range(i + 1, n):
            relation = _compare_rows(row_i, rows[j])
            if relation > 0:
                edges.add((i, j))
            elif relation < 0:
                edges.add((j, i))
    return edges


def quicksort_edges(vectors: np.ndarray, seed: int = 0, leaf_size: int = 8) -> set[Edge]:
    """The quicksort-style partition construction of §4.1.

    Comparing every vertex of a set against a pivot splits it into parents
    ``P``, children ``C`` and incomparables ``U``; every ``P x C`` edge then
    follows by transitivity with no comparison (the method's saving).  The
    remaining unknown pairs are covered by strictly smaller subproblems, each
    pair exactly once (the paper's footnote about not re-comparing pairs of
    incomparable vertices):

    * WITHIN(S)  -> WITHIN(P), WITHIN(C), WITHIN(U), CROSS(P, U), CROSS(C, U)
    * CROSS(A,B) -> partition both sides against one pivot; the unknown cells
      regroup into CROSS(P_A+U_A, P_B+U_B), CROSS(C_A, C_B+U_B), CROSS(U_A, C_B).
    """
    vectors = _validate(vectors)
    rows = [tuple(row) for row in vectors]
    rng = np.random.default_rng(seed)
    edges: set[Edge] = set()

    def compare(i: int, j: int) -> int:
        return _compare_rows(rows[i], rows[j])

    def record(i: int, j: int) -> None:
        relation = compare(i, j)
        if relation > 0:
            edges.add((i, j))
        elif relation < 0:
            edges.add((j, i))

    def partition(pivot: int, subset: list[int]) -> tuple[list[int], list[int], list[int]]:
        parents: list[int] = []
        children: list[int] = []
        incomparable: list[int] = []
        for vertex in subset:
            relation = compare(vertex, pivot)
            if relation > 0:
                parents.append(vertex)
                edges.add((vertex, pivot))
            elif relation < 0:
                children.append(vertex)
                edges.add((pivot, vertex))
            else:
                incomparable.append(vertex)
        return parents, children, incomparable

    # Work stack of ("within", S) and ("cross", A, B) frames; an explicit
    # stack avoids Python recursion limits on long chains.  The initial
    # vertex order is shuffled once so popping the last element is a random
    # pivot without per-frame list copies.
    initial = list(range(len(rows)))
    rng.shuffle(initial)
    stack: list[tuple] = [("within", initial)]
    while stack:
        frame = stack.pop()
        if frame[0] == "within":
            subset = frame[1]
            if len(subset) < 2:
                continue
            if len(subset) <= leaf_size:
                for a_index, i in enumerate(subset):
                    for j in subset[a_index + 1 :]:
                        record(i, j)
                continue
            pivot = subset.pop()
            parents, children, incomparable = partition(pivot, subset)
            for parent in parents:
                for child in children:
                    edges.add((parent, child))
            # Frames own (and may mutate) their lists, so pass copies where a
            # partition cell feeds more than one frame.
            stack.append(("within", parents))
            stack.append(("within", children))
            stack.append(("within", incomparable))
            stack.append(("cross", parents[:], incomparable[:]))
            stack.append(("cross", children[:], incomparable[:]))
        else:
            side_a, side_b = frame[1], frame[2]
            if not side_a or not side_b:
                continue
            # When a block is dominated by mutually incomparable vertices the
            # partition stops paying for itself (the paper observes exactly
            # this: "many pairs cannot be pruned"); finish such blocks with
            # direct comparisons instead of degenerate recursion.
            if len(side_a) * len(side_b) <= leaf_size * leaf_size:
                for i in side_a:
                    for j in side_b:
                        record(i, j)
                continue
            pivot_side, other_side = (
                (side_a, side_b) if len(side_a) >= len(side_b) else (side_b, side_a)
            )
            pivot = pivot_side.pop()
            p_own, c_own, u_own = partition(pivot, pivot_side)
            p_other, c_other, u_other = partition(pivot, other_side)
            # Transitivity covers P x C across sides.
            for parent in p_own:
                for child in c_other:
                    edges.add((parent, child))
            for parent in p_other:
                for child in c_own:
                    edges.add((parent, child))
            pruned = len(p_own) * len(c_other) + len(p_other) * len(c_own)
            if pruned * 4 < len(pivot_side) + len(other_side):
                # Barely any transitive pruning: finish the still-unknown
                # cells with direct scans instead of degenerate recursion.
                for i in p_own:
                    for j in p_other + u_other:
                        record(i, j)
                for i in c_own:
                    for j in c_other + u_other:
                        record(i, j)
                for i in u_own:
                    for j in other_side:
                        record(i, j)
                continue
            # Unknown cells, each covered exactly once.
            stack.append(("cross", p_own + u_own, p_other + u_other))
            stack.append(("cross", c_own, c_other + u_other))
            stack.append(("cross", u_own, c_other))
    return edges


def index_edges(
    vectors: np.ndarray,
    indexed_attributes: tuple[int, int] = (0, 1),
    cascading: bool = False,
) -> set[Edge]:
    """The range-tree construction of §4.1.

    Two attributes are indexed (the paper's heuristic for high-dimensional
    data, footnote 5: "the pairs reported by the index are a superset ...
    we only need to verify them ... based on other non-indexed attributes").

    Args:
        cascading: use the fractional-cascading tree (§4.1's complexity
            refinement: one binary search per query instead of one per
            canonical node).
    """
    vectors = _validate(vectors)
    m = vectors.shape[1]
    ax, ay = indexed_attributes
    if not (0 <= ax < m and 0 <= ay < m) or ax == ay:
        raise GraphError(
            f"indexed_attributes must be two distinct attribute indexes < {m}, "
            f"got {indexed_attributes}"
        )
    if cascading:
        from .cascading import CascadingRangeTree2D

        tree = CascadingRangeTree2D(vectors[:, [ax, ay]])
    else:
        tree = RangeTree2D(vectors[:, [ax, ay]])
    rows = [tuple(row) for row in vectors]
    edges: set[Edge] = set()
    for vertex in range(len(rows)):
        row = rows[vertex]
        candidates = tree.query_leq(row[ax], row[ay])
        for candidate in candidates:
            if candidate == vertex:
                continue
            if _compare_rows(row, rows[candidate]) > 0:
                edges.add((vertex, candidate))
    return edges


CONSTRUCTION_ALGORITHMS = {
    "brute-force": brute_force_edges,
    "quicksort": quicksort_edges,
    "index": index_edges,
    "vectorized": vectorized_edges,
    "blocked": blocked_edges,
}
