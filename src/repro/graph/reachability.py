"""Packed-bitset reachability index over the dominance relation.

Because strict dominance is transitive, a vertex's adjacency row *is* its
full descendant set — so the whole reachability structure of the DAG fits
in two bit-matrices of ``n x ceil(n/8)`` bytes (descendants row-wise, and
their transpose for ancestors).  A :class:`ReachabilityIndex` packs both
with :func:`numpy.packbits` (``bitorder="little"``: bit ``j`` of byte ``i``
is position ``8 i + j``).

Rows and columns are stored in one linear extension of the order,
:func:`repro.graph.construction.linear_extension` (dominators first), so
the descendant matrix is strictly upper triangular and the ancestor matrix
strictly lower triangular.  One permutation, :attr:`ReachabilityIndex.order`,
maps stored positions to vertex ids; every method takes and returns public
vertex ids, with neighbours in ascending id order.  The order pays off
three times:

* the build compares each 256-row tile only against the columns from its
  own first row on (the upper triangle), in one pass over the dominance
  tiles of :mod:`repro.graph.construction`;
* color propagation (``ColoringState.apply_round``) sums a round's rows,
  unpacked only over the span the order leaves non-empty
  (:meth:`ReachabilityIndex.row_counts`);
* Power's Kahn layers (:meth:`ReachabilityIndex.kahn_layers`) start from
  popcounts of the ancestor rows and peel one level at a time by
  subtracting the column sums of its descendant rows.

The incremental path-cover engine
(:class:`repro.graph.matching.IncrementalPathCover`) reads its rows through
the same public-id methods.

The index is built once per graph and only for graphs that expose their
dominance operands (``_dominance_operands() is not None``) — the naive
oracle twins in :mod:`repro.verify.oracles` never get one, so differential
checks keep exercising the pure reference paths.  A byte-size gate
(:data:`DEFAULT_REACHABILITY_BYTES`) keeps huge graphs on the
mask-broadcast path instead of materialising a quadratic index; no config
knob moves it.  :func:`repro.verify.oracles.decline_reachability` puts a
small graph in the same state, which is how the differential checks and
the selection benchmark run the reference paths.

Masks read from the index are byte-identical to the float-broadcast masks
(``graph.ancestor_mask`` / ``graph.descendant_mask``) and to the separately
built adjacency lists; the battery's ``check_reachability_index`` step
enforces this, and that nothing sits on or below the stored diagonal.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import GraphError
from ..similarity.batch import _popcount_rows
from . import construction

#: Default byte budget for one index (both matrices together).  256 MiB
#: admits graphs of roughly 30k vertices; beyond that the selection loop
#: falls back to the reference mask-broadcast path.
DEFAULT_REACHABILITY_BYTES = 256 * 1024 * 1024

#: Bytes of rows :meth:`ReachabilityIndex.row_counts` and
#: :meth:`ReachabilityIndex.kahn_layers` unpack (or AND) at once.
UNPACK_CHUNK_BYTES = 1 << 22


def pack_mask(mask: np.ndarray) -> np.ndarray:
    """Pack a boolean vector into little-endian bit-order bytes."""
    return np.packbits(np.ascontiguousarray(mask, dtype=bool), bitorder="little")


def unpack_mask(bits: np.ndarray, num_bits: int) -> np.ndarray:
    """Inverse of :func:`pack_mask`: the first *num_bits* as a bool array."""
    return np.unpackbits(bits, count=num_bits, bitorder="little").view(bool)


def lowest_set_bit(bits: np.ndarray) -> int:
    """Index of the lowest set bit of a packed vector, or -1 when empty."""
    if not bits.any():
        return -1
    byte_index = int(np.argmax(bits != 0))
    byte = int(bits[byte_index])
    return byte_index * 8 + ((byte & -byte).bit_length() - 1)


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

    @staticmethod
    def estimated_bytes(num_vertices: int) -> int:
        """Bytes the two packed matrices would occupy for *num_vertices*."""
        return 2 * num_vertices * ((num_vertices + 7) // 8)

    @classmethod
    def build(cls, dominant: np.ndarray, dominated: np.ndarray) -> "ReachabilityIndex":
        """Build the index in one pass over upper-triangle dominance tiles.

        *dominant* and *dominated* are the graph's ``_dominance_operands()``,
        permuted into :func:`~repro.graph.construction.linear_extension`
        order.  The tile of rows ``start..stop-1`` covers columns ``start..n``;
        packed along its rows it is those descendant rows from byte
        ``start/8`` on, and packed along its columns it is the ancestor
        matrix's byte columns ``start/8 .. ceil(stop/8)`` from row ``start``
        down — byte-aligned because the tile height
        ``construction.DEFAULT_BLOCK_SIZE`` is a multiple of 8.
        """
        order = construction.linear_extension(dominant)
        dominant = np.asarray(dominant, dtype=np.float64)[order]
        dominated = np.asarray(dominated, dtype=np.float64)[order]
        n = len(order)
        desc = np.zeros((n, (n + 7) // 8), dtype=np.uint8)
        anc = np.zeros_like(desc)
        for start, tile in construction._dominance_tiles(
            dominant, dominated, construction.DEFAULT_BLOCK_SIZE, upper_triangle=True
        ):
            stop = start + len(tile)
            first = start >> 3
            desc[start:stop, first:] = np.packbits(tile, axis=1, bitorder="little")
            # Packing the transposed copy along axis 1 is the axis-0 pack,
            # at a third of its cost.
            anc[start:, first : (stop + 7) >> 3] = np.packbits(
                np.ascontiguousarray(tile.T), axis=1, bitorder="little"
            )
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
        """Boolean descendant mask, byte-identical to the graph's own."""
        return self._mask(self._desc, vertex)

    def ancestor_mask(self, vertex: int) -> np.ndarray:
        """Boolean ancestor mask, byte-identical to the graph's own."""
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

    def nbytes(self) -> int:
        return int(self._desc.nbytes + self._anc.nbytes)


__all__ = [
    "DEFAULT_REACHABILITY_BYTES",
    "ReachabilityIndex",
    "lowest_set_bit",
    "pack_mask",
    "unpack_mask",
]
