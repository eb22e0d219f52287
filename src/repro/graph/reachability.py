"""Packed-bitset reachability index over the dominance relation.

Because strict dominance is transitive, a vertex's adjacency row *is* its
full descendant set — so the whole reachability structure of the DAG fits
in two bit-matrices of ``n x ceil(n/8)`` bytes (descendants row-wise, and
their transpose for ancestors).  A :class:`ReachabilityIndex` packs both
with :func:`numpy.packbits` (``bitorder="little"``: bit ``j`` of byte ``i``
is vertex ``8 i + j``), which turns the hot per-answer / per-round
operations of the selection loop into word-parallel byte ops:

* color propagation (``ColoringState.apply_answer``) fetches one row and
  unpacks it instead of re-broadcasting an ``O(n m)`` float comparison;
* the incremental path-cover engine
  (:class:`repro.graph.matching.IncrementalPathCover`) restricts adjacency
  to the active sub-DAG with a single ``AND`` against the packed active
  mask instead of rebuilding Python adjacency lists every round.

The index is built once per graph, in one pass over the dominance tiles of
:mod:`repro.graph.construction`, and only for graphs that expose their
dominance operands (``_dominance_operands() is not None``) — the naive
oracle twins in :mod:`repro.verify.oracles` never get one, so differential
checks keep exercising the pure reference paths.  A byte-size gate
(:data:`DEFAULT_REACHABILITY_BYTES`, overridable through the
``reachability_index`` config knob) keeps huge graphs on the mask-broadcast
path instead of materialising a quadratic index.

Unpacked rows are byte-identical to the float-broadcast masks
(``graph.ancestor_mask`` / ``graph.descendant_mask``) and to the adjacency
lists; the battery's ``check_reachability_index`` step enforces this.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import GraphError
from . import construction

#: Default byte budget for one index (both matrices together).  256 MiB
#: admits graphs of roughly 30k vertices; beyond that the selection loop
#: falls back to the reference mask-broadcast path.
DEFAULT_REACHABILITY_BYTES = 256 * 1024 * 1024


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
    """Packed ancestor/descendant bit-matrices of an ordered graph.

    Attributes:
        num_vertices: vertex count ``n``.
        width: bytes per packed row, ``ceil(n / 8)``.
    """

    def __init__(
        self,
        descendant_bits: np.ndarray,
        ancestor_bits: np.ndarray,
        num_vertices: int,
    ) -> None:
        self._desc = descendant_bits
        self._anc = ancestor_bits
        self.num_vertices = num_vertices
        self.width = (num_vertices + 7) // 8

    @staticmethod
    def estimated_bytes(num_vertices: int) -> int:
        """Bytes the two packed matrices would occupy for *num_vertices*."""
        return 2 * num_vertices * ((num_vertices + 7) // 8)

    @classmethod
    def build(
        cls,
        dominant: np.ndarray,
        dominated: np.ndarray,
        lists: list[np.ndarray] | None = None,
    ) -> "ReachabilityIndex":
        """Build the index in one pass over the dominance tiles of a graph.

        *dominant* and *dominated* are the graph's ``_dominance_operands()``.
        The tile of rows ``start..stop-1`` packed along its rows is those
        descendant rows; packed along its columns it is the ancestor
        matrix's byte columns ``start/8 .. ceil(stop/8)``, byte-aligned
        because the tile height ``construction.DEFAULT_BLOCK_SIZE`` is a
        multiple of 8.  When *lists* is given, the same tiles are also cut
        into per-row children lists appended to it, the lists
        :meth:`~repro.graph.dag.OrderedGraph.adjacency` returns.
        """
        n = len(dominant)
        desc = np.empty((n, (n + 7) // 8), dtype=np.uint8)
        anc = np.empty_like(desc)
        for start, tile in construction._dominance_tiles(
            dominant, dominated, construction.DEFAULT_BLOCK_SIZE
        ):
            stop = start + len(tile)
            desc[start:stop] = np.packbits(tile, axis=1, bitorder="little")
            # Packing the transposed copy along axis 1 is the axis-0 pack,
            # at a third of its cost.
            anc[:, start >> 3 : (stop + 7) >> 3] = np.packbits(
                np.ascontiguousarray(tile.T), axis=1, bitorder="little"
            )
            if lists is not None:
                lists.extend(map(np.flatnonzero, tile))
        return cls(desc, anc, n)

    # ------------------------------------------------------------------ #
    # Row access
    # ------------------------------------------------------------------ #

    def _check(self, vertex: int) -> None:
        if not 0 <= vertex < self.num_vertices:
            raise GraphError(
                f"vertex {vertex} out of range [0, {self.num_vertices})"
            )

    def descendant_row(self, vertex: int) -> np.ndarray:
        """Packed row of vertices strictly dominated by *vertex*."""
        self._check(vertex)
        return self._desc[vertex]

    def ancestor_row(self, vertex: int) -> np.ndarray:
        """Packed row of vertices strictly dominating *vertex*."""
        self._check(vertex)
        return self._anc[vertex]

    def descendant_mask(self, vertex: int) -> np.ndarray:
        """Boolean descendant mask, byte-identical to the graph's own."""
        return unpack_mask(self.descendant_row(vertex), self.num_vertices)

    def ancestor_mask(self, vertex: int) -> np.ndarray:
        """Boolean ancestor mask, byte-identical to the graph's own."""
        return unpack_mask(self.ancestor_row(vertex), self.num_vertices)

    def nbytes(self) -> int:
        return int(self._desc.nbytes + self._anc.nbytes)


__all__ = [
    "DEFAULT_REACHABILITY_BYTES",
    "ReachabilityIndex",
    "lowest_set_bit",
    "pack_mask",
    "unpack_mask",
]
