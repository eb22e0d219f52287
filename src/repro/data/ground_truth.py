"""Ground-truth helpers: entity clusters and gold match pairs."""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Collection, Iterable
from itertools import chain
from operator import index

import numpy as np

from ..exceptions import DataError
from .table import Table

Pair = tuple[int, int]


def canonical_pair(i: int, j: int) -> Pair:
    """Return the pair ``(min(i, j), max(i, j))``; reject self-pairs."""
    if i == j:
        raise DataError(f"a pair must join two distinct records, got ({i}, {j})")
    return (i, j) if i < j else (j, i)


def pair_arrays(pairs: Iterable[Pair], num_records: int) -> tuple[np.ndarray, np.ndarray]:
    """*pairs* as two aligned int64 arrays: each pair's lower and higher id.

    Every pair must join two distinct integer record ids in
    ``[0, num_records)``; anything else raises :class:`DataError` before
    the ids can index an array, where a negative id would silently wrap.
    """
    if not isinstance(pairs, Collection):
        pairs = list(pairs)
    try:
        ids = np.fromiter(map(index, chain.from_iterable(pairs)), dtype=np.int64)
    except TypeError:
        raise DataError("record ids must be integers") from None
    except OverflowError:
        raise DataError(f"a pair references a record outside [0, {num_records})") from None
    if ids.size != 2 * len(pairs):
        raise DataError("every pair must hold exactly two record ids")
    low = np.minimum(ids[0::2], ids[1::2])
    high = np.maximum(ids[0::2], ids[1::2])
    if not ids.size:
        return low, high
    same = low == high
    if same.any():
        record = int(low[same][0])
        raise DataError(f"a pair must join two distinct records, got ({record}, {record})")
    if low.min() < 0 or high.max() >= num_records:
        raise DataError(f"a pair references a record outside [0, {num_records})")
    return low, high


def entity_clusters(table: Table) -> dict[int, list[int]]:
    """Map each entity id to the sorted list of record ids referring to it."""
    if not table.has_ground_truth():
        raise DataError(f"table {table.name!r} has records without entity ids")
    clusters: dict[int, list[int]] = defaultdict(list)
    for record in table:
        clusters[record.entity_id].append(record.record_id)
    return {entity: sorted(members) for entity, members in clusters.items()}


def true_match_pairs(table: Table) -> set[Pair]:
    """All record pairs that refer to the same entity (the gold positives)."""
    matches: set[Pair] = set()
    for members in entity_clusters(table).values():
        for a_index, i in enumerate(members):
            for j in members[a_index + 1 :]:
                matches.add((i, j))
    return matches


def pair_truth(table: Table, pairs: Iterable[Pair]) -> dict[Pair, bool]:
    """For each pair, whether its two records refer to the same entity."""
    if not table.has_ground_truth():
        raise DataError(f"table {table.name!r} has records without entity ids")
    entity = [record.entity_id for record in table]
    num_records = len(entity)
    truth: dict[Pair, bool] = {}
    for pair in pairs:
        i, j = pair
        # A canonical tuple is its own key: no new tuple per candidate pair.
        if type(pair) is not tuple or not 0 <= i < j < num_records:
            pair = canonical_pair(i, j)
            i, j = pair
            if i < 0 or j >= num_records:
                raise DataError(
                    f"pair {pair} references a record outside [0, {num_records})"
                )
        truth[pair] = entity[i] == entity[j]
    return truth


def num_entities(table: Table) -> int:
    """Number of distinct entities in the table."""
    return len(entity_clusters(table))
