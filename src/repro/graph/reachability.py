"""Packed-bitset reachability index over the dominance relation.

Because strict dominance is transitive, a vertex's children *are* its
full descendant set — so the whole reachability structure of the DAG fits
in two bit-matrices of ``n x ceil(n/8)`` bytes (descendants row-wise, and
their transpose for ancestors).  A :class:`ReachabilityIndex` holds both
packed in ``bitorder="little"`` (bit ``j`` of byte ``i`` is position
``8 i + j``).  The build computes the packed rows directly, eight
comparisons to a byte, as the Bitmap skyline method does (Tan, Eng & Ooi,
VLDB 2001): one prefix bitset per distinct attribute value, ANDed across
the attributes.

Rows and columns are stored in one linear extension of the order,
:func:`repro.graph.construction.linear_extension` (dominators first), so
the descendant matrix is strictly upper triangular and the ancestor matrix
strictly lower triangular.  One permutation, :attr:`ReachabilityIndex.order`,
maps stored positions to vertex ids; every method takes and returns public
vertex ids, with neighbours in ascending id order.  The order pays off
three times:

* the build ANDs each block of descendant rows only from the block's
  first byte on, and each block of ancestor rows only up to its last;
* color propagation (``ColoringState.apply_round``) sums a round's rows,
  unpacked only over the span the order leaves non-empty
  (:meth:`ReachabilityIndex.row_counts`);
* Power's Kahn layers (:meth:`ReachabilityIndex.kahn_layers`) start from
  popcounts of the ancestor rows and peel one level at a time by
  subtracting the column sums of its descendant rows.

The index is the one form of the relation production reads
(``OrderedGraph.reachability``, built from the graph's dominance operands
on first read): color propagation, Kahn layering, the path-cover engine
it hands the selectors (:meth:`ReachabilityIndex.path_cover`, a
:class:`repro.graph.matching.IncrementalPathCover` reading its rows
through the same public-id methods), and the order statistics.

``repro.verify.relation`` keeps the references it is diffed against: the
float-broadcast masks and the children lists cut from its dominance
tiles, which share no code with the prefix-bitset build.  The battery's
``check_reachability_index`` step enforces that every row equals both,
and that nothing sits on or below the stored diagonal.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import GraphError
from ..similarity.batch import _popcount_rows
from . import construction
from .matching import IncrementalPathCover

#: Bytes of rows :meth:`ReachabilityIndex.row_counts` and
#: :meth:`ReachabilityIndex.kahn_layers` unpack (or AND) at once, and the
#: most bytes of prefix table the build holds at once.
UNPACK_CHUNK_BYTES = 1 << 22


def pack_mask(mask: np.ndarray) -> np.ndarray:
    """Pack a boolean vector into little-endian bit-order bytes."""
    return np.packbits(np.ascontiguousarray(mask, dtype=bool), bitorder="little")


def unpack_mask(bits: np.ndarray, num_bits: int) -> np.ndarray:
    """Inverse of :func:`pack_mask`: the first *num_bits* as a bool array."""
    return np.unpackbits(bits, count=num_bits, bitorder="little").view(bool)


class ReachabilityIndex:
    """Packed ancestor/descendant bit-matrices in linear-extension order.

    Attributes:
        num_vertices: vertex count ``n``.
        width: bytes per packed row, ``ceil(n / 8)``.
        order: the vertex id stored at each position (a linear extension).
    """

    def __init__(
        self,
        descendant_bits: np.ndarray,
        ancestor_bits: np.ndarray,
        order: np.ndarray,
    ) -> None:
        self._desc = descendant_bits
        self._anc = ancestor_bits
        self.order = order
        self._position = np.empty_like(order)
        self._position[order] = np.arange(len(order))
        self.num_vertices = len(order)
        self.width = (self.num_vertices + 7) // 8

    @classmethod
    def build(cls, dominant: np.ndarray, dominated: np.ndarray) -> "ReachabilityIndex":
        """Build the index from per-attribute prefix bitsets.

        *dominant* and *dominated* are the graph's ``_dominance_operands()``,
        permuted into :func:`~repro.graph.construction.linear_extension`
        order.  Vertex ``u`` lists ``v`` as a descendant when
        ``dominant[u] >= dominated[v]`` on every attribute: the AND, over the
        attributes, of the prefix-table rows ``u``'s own values pick
        (:func:`_dominance_rows`).  Ancestor rows are the same relation read
        from the other side: ``-dominated[v] >= -dominant[u]``.  Strictness
        then clears the pairs whose rows are equal (their joint row ranks,
        ``construction._joint_row_ranks``, match) and the diagonal.  With no
        attribute every row is equal, and nothing is set.  Besides the two
        matrices the build holds at most :data:`UNPACK_CHUNK_BYTES` of one
        attribute's table and one block of gathered rows.
        """
        order = construction.linear_extension(dominant)
        dominant = np.asarray(dominant, dtype=np.float64)[order]
        dominated = np.asarray(dominated, dtype=np.float64)[order]
        high = np.ascontiguousarray(dominant.T)
        low = np.ascontiguousarray(dominated.T)
        desc = _dominance_rows(high, low, upper=True)
        anc = _dominance_rows(-low, -high, upper=False)
        if dominant.shape[1]:
            _clear_equal_rows(desc, anc, dominant, dominated)
        return cls(desc, anc, order)

    # ------------------------------------------------------------------ #
    # Row access (public vertex ids)
    # ------------------------------------------------------------------ #

    def _positions(self, vertices) -> np.ndarray:
        vertices = np.asarray(vertices, dtype=np.intp)
        if vertices.size and (vertices.min() < 0 or vertices.max() >= self.num_vertices):
            outside = (vertices < 0) | (vertices >= self.num_vertices)
            self._position_of(int(vertices[outside][0]))
        return self._position[vertices]

    def _position_of(self, vertex: int) -> int:
        if not 0 <= vertex < self.num_vertices:
            raise GraphError(
                f"vertex {vertex} out of range [0, {self.num_vertices})"
            )
        return int(self._position[vertex])

    def _mask(self, rows: np.ndarray, vertex: int) -> np.ndarray:
        row = rows[self._position_of(vertex)]
        return unpack_mask(row, self.num_vertices)[self._position]

    def descendant_mask(self, vertex: int) -> np.ndarray:
        """Boolean mask of the vertices *vertex* strictly dominates."""
        return self._mask(self._desc, vertex)

    def ancestor_mask(self, vertex: int) -> np.ndarray:
        """Boolean mask of the vertices strictly dominating *vertex*."""
        return self._mask(self._anc, vertex)

    def descendants(self, vertex: int) -> np.ndarray:
        """Ids of the vertices *vertex* strictly dominates, ascending."""
        position = self._position_of(vertex)
        first = position >> 3
        bits = unpack_mask(self._desc[position, first:], self.num_vertices - 8 * first)
        return np.sort(self.order[bits.nonzero()[0] + 8 * first])

    def ancestors(self, vertex: int) -> np.ndarray:
        """Ids of the vertices strictly dominating *vertex*, ascending."""
        position = self._position_of(vertex)
        bits = unpack_mask(self._anc[position, : (position + 7) >> 3], position)
        return np.sort(self.order[bits.nonzero()[0]])

    def reached(self, vertices) -> np.ndarray:
        """Ids of the vertices below at least one of *vertices*, unordered.

        Each id once, in stored order, which saves sorting a set whose
        order the caller does not need.
        """
        positions = self._positions(vertices)
        if not positions.size:
            return positions
        first = int(positions.min()) >> 3
        bits = np.bitwise_or.reduce(self._desc[positions, first:], axis=0)
        stored = unpack_mask(bits, self.num_vertices - 8 * first).nonzero()[0]
        return self.order[stored + 8 * first]

    def _column_sums(self, positions: np.ndarray, ancestors: bool) -> np.ndarray:
        """Stored-order column sums of the rows stored at *positions*.

        Descendant rows are empty left of their own position and ancestor
        rows right of it, so only the bytes between the first and the last
        possible bit are unpacked, :data:`UNPACK_CHUNK_BYTES` and at most
        255 rows at a time: the column sums of a chunk then fit in the
        bytes they are summed in, several times faster than widening.
        """
        n = self.num_vertices
        counts = np.zeros(n, dtype=np.int32)
        if not positions.size:
            return counts
        if ancestors:
            rows, lo, hi = self._anc, 0, (int(positions.max()) + 7) >> 3
        else:
            rows, lo, hi = self._desc, int(positions.min()) >> 3, self.width
        bits = min(n, 8 * hi) - 8 * lo
        step = max(1, min(255, UNPACK_CHUNK_BYTES // max(1, bits)))
        for start in range(0, len(positions), step):
            unpacked = np.unpackbits(
                rows[positions[start : start + step], lo:hi],
                axis=1,
                count=bits,
                bitorder="little",
            )
            counts[8 * lo : 8 * lo + bits] += unpacked.sum(axis=0, dtype=np.uint8)
        return counts

    def row_counts(self, vertices: np.ndarray, ancestors: bool) -> np.ndarray:
        """How many of *vertices* list each vertex in their row.

        With *ancestors*, the column sums of the vertices' ancestor rows
        (the GREEN votes their Yes answers cast); otherwise of their
        descendant rows (RED votes).  A repeated vertex counts each time.
        The counts are indexed by vertex id.
        """
        return self._column_sums(self._positions(vertices), ancestors)[self._position]

    def kahn_layers(self, active: np.ndarray) -> list[np.ndarray]:
        """Kahn level sets of the sub-DAG induced on the *active* mask.

        A vertex's in-degree is the popcount of its ancestor row ANDed with
        the packed active mask (over the bytes left of its position); each
        level is peeled off by subtracting the column sums of its
        descendant rows.  Every vertex left after a level has an ancestor
        in it, so the sums start at the level's first position.
        """
        stored_active = np.asarray(active, dtype=bool)[self.order]
        positions = np.flatnonzero(stored_active)
        active_bits = pack_mask(stored_active)
        degree = np.empty(len(positions), dtype=np.int64)
        step = max(1, UNPACK_CHUNK_BYTES // max(1, self.width))
        for start in range(0, len(positions), step):
            chunk = positions[start : start + step]
            hi = (int(chunk[-1]) + 7) >> 3
            degree[start : start + len(chunk)] = _popcount_rows(
                self._anc[chunk, :hi] & active_bits[:hi]
            )
        layers: list[np.ndarray] = []
        while positions.size:
            ready = degree == 0
            if not ready.any():
                raise GraphError(
                    f"Kahn peeling stalled with {positions.size} vertices left: "
                    "the index rows disagree"
                )
            level = positions[ready]
            layers.append(np.sort(self.order[level]))
            positions, degree = positions[~ready], degree[~ready]
            if positions.size:
                degree -= self._column_sums(level, ancestors=False)[positions]
        return layers

    def path_cover(self) -> IncrementalPathCover:
        """A fresh warm-start path-cover engine over these rows."""
        return IncrementalPathCover(self)


#: ``_BIT[j]`` is the byte with only bit ``j`` set (``bitorder="little"``).
_BIT = np.left_shift(1, np.arange(8)).astype(np.uint8)


def _threshold_counts(ordered: np.ndarray, values: np.ndarray) -> np.ndarray:
    """How many of the sorted *ordered* each of *values* is at least.

    NaN compares false on either side, as in Eqs. 3-4's comparisons.  NaN sorts
    last, so no other value counts a NaN in *ordered*; a NaN value counts
    nothing.
    """
    counts = np.searchsorted(ordered, values, side="right")
    counts[values != values] = 0
    return counts


def _prefix_table(
    listed: np.ndarray, entries: np.ndarray, rows: int, row_bytes: int
) -> np.ndarray:
    """One attribute's prefix-OR table, *rows* rows of *row_bytes* bytes.

    Column ``listed[i]`` enters at table row ``entries[i]``, and a prefix OR
    down the rows (as 8-byte words, so the rows are padded to whole words)
    carries it into every later row.
    """
    width = -(-row_bytes // 8) * 8
    table = np.zeros((rows, width), dtype=np.uint8)
    np.bitwise_or.at(
        table.reshape(-1), entries * width + (listed >> 3), _BIT[listed & 7]
    )
    words = table.view(np.uint64)
    np.bitwise_or.accumulate(words, axis=0, out=words)
    return table


def _dominance_rows(rows: np.ndarray, columns: np.ndarray, upper: bool) -> np.ndarray:
    """Packed ``rows[:, r] >= columns[:, c]`` on every attribute, by rows ``r``.

    *rows* and *columns* are ``(m, n)``, one attribute per row.  The
    attributes are taken one at a time.  Each gets a prefix-OR table over
    its columns sorted by value: row ``i`` holds the bits of every column
    whose value is at most the ``i``-th threshold, and only thresholds some
    row picks get a table row (a presence mask over the counts ``0..n``).
    A row's bits are then the AND, over the attributes, of the table rows
    its own values pick.

    Rows and columns are in one linear extension, so with *upper* a block of
    rows ``start..stop-1`` can hold bits only from byte ``start/8`` on (the
    descendant side), and otherwise only up to byte ``ceil(stop/8)`` (the
    ancestor side); the bytes outside stay zero.  The blocks are
    ``construction.DEFAULT_BLOCK_SIZE`` rows high, a multiple of 8, so a
    block starts on a byte.  A table holding more than
    :data:`UNPACK_CHUNK_BYTES` is built and applied in column chunks, so at
    most one chunk of one attribute's table is alive at once.
    """
    m, n = rows.shape
    width = (n + 7) // 8
    bits = np.zeros((n, width), dtype=np.uint8)
    if not n:
        return bits
    height = construction.DEFAULT_BLOCK_SIZE
    for k in range(m):
        by_value = np.argsort(columns[k])
        counts = _threshold_counts(columns[k, by_value], rows[k])
        present = np.zeros(n + 1, dtype=bool)
        present[counts] = True
        slots = np.cumsum(present)
        picks = slots[counts] - 1
        # The column at sorted position p enters the table at the first
        # picked count past p.
        last = int(counts.max())
        listed, entries = by_value[:last], slots[:last]
        thresholds = int(slots[-1])
        span = max(8, UNPACK_CHUNK_BYTES // thresholds // 8 * 8)
        for chunk in range(0, width, span):
            end = min(chunk + span, width)
            inside = listed, entries
            if span < width:  # several chunks: keep this chunk's columns
                keep = (listed >= 8 * chunk) & (listed < 8 * end)
                inside = listed[keep] - 8 * chunk, entries[keep]
            table = _prefix_table(*inside, thresholds, end - chunk)
            for start in range(0, n, height):
                stop = min(start + height, n)
                if upper:
                    lo, hi = max(chunk, start >> 3), end
                else:
                    lo, hi = chunk, min(end, (stop + 7) >> 3)
                if lo >= hi:
                    continue
                block = table[picks[start:stop], lo - chunk : hi - chunk]
                if k:
                    bits[start:stop, lo:hi] &= block
                else:
                    bits[start:stop, lo:hi] = block
    return bits


def _clear_equal_rows(
    desc: np.ndarray, anc: np.ndarray, dominant: np.ndarray, dominated: np.ndarray
) -> None:
    """Clear the diagonal and every pair whose two rows are equal.

    ``>=`` everywhere is strict dominance unless the rows are equal, which
    their joint row ranks tell exactly.  Equal pairs off the diagonal are
    expanded one block of rows at a time, so no temporary grows with the
    square of the number of equal rows.
    """
    n = len(desc)
    diagonal = np.arange(n)
    desc[diagonal, diagonal >> 3] &= ~_BIT[diagonal & 7]
    anc[diagonal, diagonal >> 3] &= ~_BIT[diagonal & 7]
    row_ranks, column_ranks = construction._joint_row_ranks(dominant, dominated)
    sizes = np.bincount(column_ranks, minlength=2 * n + 1)
    matches = sizes[row_ranks]
    if not (matches - (row_ranks == column_ranks)).any():
        return
    by_rank = np.argsort(column_ranks)
    firsts = np.cumsum(sizes) - sizes
    for start in range(0, n, construction.DEFAULT_BLOCK_SIZE):
        stop = min(start + construction.DEFAULT_BLOCK_SIZE, n)
        counts = matches[start:stop]
        total = int(counts.sum())
        if not total:
            continue
        rows = np.repeat(np.arange(start, stop), counts)
        offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        cols = by_rank[np.repeat(firsts[row_ranks[start:stop]], counts) + offsets]
        np.bitwise_and.at(desc, (rows, cols >> 3), ~_BIT[cols & 7])
        np.bitwise_and.at(anc, (cols, rows >> 3), ~_BIT[rows & 7])


__all__ = [
    "ReachabilityIndex",
    "pack_mask",
    "unpack_mask",
]
